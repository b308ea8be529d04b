package ad

import (
	"fmt"
	"math"

	"zoomer/internal/tensor"
)

// The fused ops: one node each for a chain of primitive ops that Zoomer
// runs once per ROI node, bit-identical to the chain (see the package
// comment for the replay rule). Each op's comment names the composition
// it replaces.

// Slot is one row of a GatherSlots node: row IDs[0] of Table or, with
// Mean, the mean of Table's rows IDs. When Sink is non-nil, Backward
// hands it the gradient of each row read.
type Slot struct {
	Table *tensor.Matrix
	IDs   []int32
	Sink  GradSink
	Mean  bool
}

// GatherSlots returns a len(slots) x Cols node whose row s is slots[s]:
// a node's feature matrix, each slot from its own table. The ids are
// copied. It is ConcatRows over one gather per slot, with MeanRows over
// a Mean slot's gather; Backward hands the sinks their rows' gradients
// slot by slot from the last, a Mean slot's ids in order.
func (t *Tape) GatherSlots(slots ...Slot) *Node {
	if len(slots) == 0 {
		panic("ad: GatherSlots of nothing")
	}
	cols := slots[0].Table.Cols
	rec := t.slots.take(len(slots))
	needsGrad := false
	for s, sl := range slots {
		if sl.Table.Cols != cols || len(sl.IDs) == 0 || !sl.Mean && len(sl.IDs) != 1 {
			panic(fmt.Sprintf("ad: GatherSlots slot %d: %d ids from a %d-column table, want %d columns and one id unless Mean", s, len(sl.IDs), sl.Table.Cols, cols))
		}
		rec[s] = sl
		rec[s].IDs = t.ids.take(len(sl.IDs))
		copy(rec[s].IDs, sl.IDs)
		needsGrad = needsGrad || sl.Sink != nil
	}
	out := t.node(opGatherSlots, len(slots), cols, needsGrad, nil, nil)
	for s, sl := range rec {
		row := out.Val.Row(s)
		if !sl.Mean {
			copy(row, sl.Table.Row(int(sl.IDs[0])))
			continue
		}
		for _, id := range sl.IDs {
			for j, v := range sl.Table.Row(int(id)) {
				row[j] += v
			}
		}
		inv := 1 / float32(len(sl.IDs))
		for j := range row {
			row[j] *= inv
		}
	}
	out.aux = &t.auxes.take(1)[0]
	out.aux.slots = rec
	return out
}

func (n *Node) gatherSlotsBackward() {
	g := n.tape.scratch(n.Cols())
	for s := len(n.aux.slots) - 1; s >= 0; s-- {
		sl := n.aux.slots[s]
		if sl.Sink == nil {
			continue
		}
		// ConcatRows carved the slot's gradient fresh; MeanRows carved
		// its gather's rows fresh, each the same scaled row.
		og := n.row(n.grad, s)
		inv := 1 / float32(len(sl.IDs))
		for j, v := range og {
			g[j] = zeroAdd(v)
			if sl.Mean {
				g[j] = zeroAdd(g[j] * inv)
			}
		}
		for _, id := range sl.IDs {
			sl.Sink.AddRowGrad(id, g)
		}
	}
}

// SlotAttention returns softmax(h·cᵀ/√d)·h, 1 x d, for an n x d h and a
// 1 x d c: c's scaled dot-product attention over h's rows, the feature
// level (eq. 6–7). It is MatMul(h, Transpose(c)), Scale by 1/√d,
// Transpose, SoftmaxRows, then MatMul with h. AttentionWeights reads the
// softmax weights.
func (t *Tape) SlotAttention(h, c *Node) *Node {
	d := h.Cols()
	if c.Rows() != 1 || c.Cols() != d {
		panic(fmt.Sprintf("ad: SlotAttention query %dx%d for %dx%d rows", c.Rows(), c.Cols(), h.Rows(), d))
	}
	out := t.node(opSlotAttention, 1, d, anyNeedsGrad(h, c), h, c)
	w := t.floats.take(h.Rows())
	alpha := attnScale(d)
	for i := range w {
		w[i] = alpha * accNonZero(0, h.Val.Row(i), c.Val.Data)
	}
	tensor.Softmax(w, w)
	for i, wi := range w {
		if wi != 0 {
			tensor.Axpy(wi, h.Val.Row(i), out.Val.Data)
		}
	}
	out.aux = &t.auxes.take(1)[0]
	out.aux.weights = w
	return out
}

// attnScale is SlotAttention's 1/√d.
func attnScale(d int) float32 { return 1 / float32(math.Sqrt(float64(d))) }

func (n *Node) slotAttentionBackward() {
	h, c, w, dz := n.a, n.b, n.aux.weights, n.grad
	d := h.Cols()
	// MatMul(w, h): w's fresh gradient dz·hᵀ, then h's rows.
	gs := n.tape.scratch(len(w))
	for j := range gs {
		gs[j] = accNonZero(0, dz, h.Val.Row(j))
	}
	if h.needsGrad {
		hg := h.ensureGrad()
		for i, wi := range w {
			if wi != 0 {
				tensor.Axpy(wi, dz, h.row(hg, i))
			}
		}
	}
	// SoftmaxRows, Transpose and Scale, each into a fresh gradient
	// (0 + (0 + x) is 0 + x, so Transpose's add is folded in).
	dot, alpha := softmaxDot(w, gs), attnScale(d)
	for j := range gs {
		gs[j] = zeroAdd(alpha * zeroAdd(w[j]*(gs[j]-dot)))
	}
	// MatMul(h, cᵀ): h's rows, then cᵀ's fresh gradient hᵀ·gs, which
	// Transpose adds into c's.
	if h.needsGrad {
		hg := h.ensureGrad()
		for i, g := range gs {
			if g != 0 {
				tensor.Axpy(g, c.Val.Data, h.row(hg, i))
			}
		}
	}
	if c.needsGrad {
		cg := c.ensureGrad()
		for i := range cg {
			var s float32
			for k, g := range gs {
				if hv := h.Val.Data[k*d+i]; hv != 0 {
					s += hv * g
				}
			}
			cg[i] += s
		}
	}
}

// EdgeAttention returns Σ_j e_j·k_j over the 1 x d rows ks, with
// e = softmax_j(LeakyReLU(slope, [q ‖ k_j ‖ c]·a)) for 1 x d q and c and
// a 3d x 1 attention vector a: q's GAT-style attention over one neighbor
// type, the edge level (eq. 8–9). It is, per row, ConcatCols(q, k_j, c),
// MatMul with a and LeakyReLU; then ConcatCols of the scores,
// SoftmaxRows, and MatMul with ConcatRows(ks) (made first).
// AttentionWeights reads the softmax weights.
func (t *Tape) EdgeAttention(slope float32, q, c, a *Node, ks []*Node) *Node {
	d, m := q.Cols(), len(ks)
	if m == 0 || q.Rows() != 1 || c.Rows() != 1 || c.Cols() != d || a.Rows() != 3*d || a.Cols() != 1 {
		panic(fmt.Sprintf("ad: EdgeAttention of %d rows, q %dx%d, c %dx%d, a %dx%d", m, q.Rows(), d, c.Rows(), c.Cols(), a.Rows(), a.Cols()))
	}
	ins := t.ptrs.take(m + 1)
	ins[0] = a
	needsGrad := q.needsGrad || c.needsGrad || a.needsGrad
	for j, k := range ks {
		if k.Rows() != 1 || k.Cols() != d {
			panic(fmt.Sprintf("ad: EdgeAttention row %d is %dx%d, want 1x%d", j, k.Rows(), k.Cols(), d))
		}
		ins[j+1] = k
		needsGrad = needsGrad || k.needsGrad
	}
	out := t.node(opEdgeAttention, 1, d, needsGrad, q, c)
	out.ins, out.alpha = ins, slope
	p, w := t.floats.take(m), t.floats.take(m)
	av := a.Val.Data
	sq := accNonZero(0, q.Val.Data, av[:d]) // every row's sum opens alike
	for j, k := range ks {
		p[j] = accNonZero(accNonZero(sq, k.Val.Data, av[d:2*d]), c.Val.Data, av[2*d:])
		w[j] = slope * p[j]
		if p[j] > 0 {
			w[j] = p[j]
		}
	}
	tensor.Softmax(w, w)
	for j, wj := range w {
		if wj != 0 {
			tensor.Axpy(wj, ks[j].Val.Data, out.Val.Data)
		}
	}
	out.aux = &t.auxes.take(1)[0]
	out.aux.scores, out.aux.weights = p, w
	return out
}

func (n *Node) edgeAttentionBackward() {
	q, c, a, ks := n.a, n.b, n.ins[0], n.ins[1:]
	p, w, dz := n.aux.scores, n.aux.weights, n.grad
	d, av := q.Cols(), a.Val.Data
	// MatMul(w, stack): w's fresh gradient dz·stackᵀ; SoftmaxRows into
	// the scores row's fresh gradient.
	gs := n.tape.scratch(len(w))
	for j, k := range ks {
		gs[j] = accNonZero(0, dz, k.Val.Data)
	}
	dot := softmaxDot(w, gs)
	for j := range gs {
		gs[j] = zeroAdd(w[j] * (gs[j] - dot))
	}
	cat := [3]*Node{q, nil, c}
	for j := len(ks) - 1; j >= 0; j-- {
		cat[1] = ks[j]
		if !q.needsGrad && !ks[j].needsGrad && !c.needsGrad && !a.needsGrad {
			continue // the row's score needs no gradient
		}
		// ConcatCols of the scores, then LeakyReLU: fresh 1x1 gradients.
		slope := n.alpha
		if p[j] > 0 {
			slope = 1
		}
		dp := zeroAdd(zeroAdd(gs[j]) * slope)
		// MatMul(cat, a): a's gradient catᵀ·dp, then cat's fresh
		// gradient dp·aᵀ, which ConcatCols adds into q, k_j and c.
		if a.needsGrad {
			ag := a.ensureGrad()
			for s, in := range cat {
				seg := ag[s*d : (s+1)*d]
				for i, v := range in.Val.Data {
					if v != 0 {
						seg[i] += v * dp
					}
				}
			}
		}
		for s, in := range cat {
			if in.needsGrad {
				addScaled(in.ensureGrad(), dp, av[s*d:(s+1)*d])
			}
		}
	}
	// MatMul(w, stack): the stack's fresh gradient wᵀ·dz, which
	// ConcatRows adds into each row.
	for j, k := range ks {
		if k.needsGrad {
			addScaled(k.ensureGrad(), w[j], dz)
		}
	}
}

// addScaled adds into g the fresh gradient GemmAcc leaves for alpha·x:
// 0 + alpha·x[i], or 0 where it skips a zero alpha. Either add turns a
// −0 in g into +0.
func addScaled(g []float32, alpha float32, x []float32) {
	x = x[:len(g)]
	if alpha == 0 {
		for i := range g {
			g[i] += 0
		}
		return
	}
	for i, v := range x {
		g[i] += zeroAdd(alpha * v)
	}
}

// AttentionWeights returns the softmax weights a SlotAttention or
// EdgeAttention node gave its rows, valid until the tape's next Reset.
func (n *Node) AttentionWeights() []float32 {
	if n.op != opSlotAttention && n.op != opEdgeAttention {
		panic("ad: AttentionWeights of a node that is not an attention op")
	}
	return n.aux.weights
}

// accNonZero returns s plus Σ x[k]·y[k] over the k with x[k] ≠ 0, added
// in k order and each product rounded: GemmAcc's running sum for one
// output element.
func accNonZero(s float32, x, y []float32) float32 {
	y = y[:len(x)]
	for k, v := range x {
		if v != 0 {
			s += v * y[k]
		}
	}
	return s
}

// zeroAdd returns 0 + x: what a fresh, zeroed gradient holds after its
// first add. It is x, except that −0 becomes +0.
func zeroAdd(x float32) float32 {
	var z float32
	return z + x
}
