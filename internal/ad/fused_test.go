package ad

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// The compositions of primitive ops the fused ops replace, as Zoomer's
// tower recorded them before they were fused.

func slotAttentionComposed(tp *Tape, h, c *Node) (out, w *Node) {
	scores := tp.Scale(1/float32(math.Sqrt(float64(c.Cols()))), tp.MatMul(h, tp.transpose(c)))
	w = tp.SoftmaxRows(tp.transpose(scores))
	return tp.MatMul(w, h), w
}

func edgeAttentionComposed(tp *Tape, slope float32, q, c, a *Node, ks []*Node) (out, w *Node) {
	stack := tp.ConcatRows(ks...)
	scores := make([]*Node, len(ks))
	for j, k := range ks {
		scores[j] = tp.LeakyReLU(slope, tp.MatMul(tp.ConcatCols(q, k, c), a))
	}
	w = tp.SoftmaxRows(tp.ConcatCols(scores...))
	return tp.MatMul(w, stack), w
}

func gatherSlotsComposed(tp *Tape, slots []Slot) *Node {
	rows := make([]*Node, len(slots))
	for s, sl := range slots {
		rows[s] = tp.gather(sl.Table, sl.IDs, sl.Sink)
		if sl.Mean {
			rows[s] = tp.MeanRows(rows[s])
		}
	}
	return tp.ConcatRows(rows...)
}

// Operand kinds: how an op's input gets its gradient.
const (
	watched  = iota // a parameter whose gradient starts seeded, 0 and −0 among it
	fresh           // an op's output, its gradient carved fresh
	constant        // no gradient
	numKinds
)

// sinkCall is one recorded AddRowGrad call, the gradient as bits.
type sinkCall struct {
	sink int
	id   int32
	grad []uint32
}

type recordingSink struct {
	sink int
	log  *[]sinkCall
}

func (s recordingSink) AddRowGrad(id int32, grad []float32) {
	*s.log = append(*s.log, sinkCall{s.sink, id, bits(grad)})
}

func bits(v []float32) []uint32 {
	if v == nil {
		return nil
	}
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// fusedEnv builds one side of a comparison: seeded operands on a fresh
// tape, every node it makes remembered for the gradient check.
type fusedEnv struct {
	tp    *Tape
	r     *rng.RNG
	scale float32
	nodes []*Node
	calls []sinkCall
}

// vals returns n seeded values in [-scale, scale) with zeros and
// negative zeros among them.
func (e *fusedEnv) vals(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch u := e.r.Float32(); {
		case u < 0.15:
			out[i] = 0
		case u < 0.3:
			out[i] = float32(math.Copysign(0, -1))
		default:
			out[i] = (e.r.Float32()*2 - 1) * e.scale
		}
	}
	return out
}

func (e *fusedEnv) matrix(rows, cols int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: e.vals(rows * cols)}
}

func (e *fusedEnv) operand(kind, rows, cols int) *Node {
	var n *Node
	switch kind {
	case watched:
		n = e.tp.Watch(e.matrix(rows, cols), e.matrix(rows, cols))
	case fresh:
		leaf := e.tp.Watch(e.matrix(rows, cols), e.matrix(rows, cols))
		e.nodes = append(e.nodes, leaf)
		n = e.tp.Scale(1, leaf) // keeps −0
	default:
		n = e.tp.Const(e.matrix(rows, cols))
	}
	e.nodes = append(e.nodes, n)
	return n
}

func (e *fusedEnv) sink(i int) GradSink { return recordingSink{i, &e.calls} }

// fusedResult is what a comparison checks, all as bits: the output, the
// attention weights, every remembered node's gradient and the sinks'
// calls in order.
type fusedResult struct {
	val, weights []uint32
	grads        [][]uint32
	calls        []sinkCall
}

// runFusedCase builds one side with build, which returns the op's output
// and its attention weights (nil for GatherSlots), then differentiates
// out·upstream (all zeros when zeroUp) plus, created after the op so
// that their gradients land first, a term over every other remembered
// node that needs a gradient (which half, the seed picks). Values are
// drawn at the given scale.
func runFusedCase(seed uint64, zeroUp bool, scale float32, build func(e *fusedEnv) (out *Node, w []float32)) fusedResult {
	e := &fusedEnv{tp: NewTape(), r: rng.New(seed), scale: scale}
	out, w := build(e)
	up := e.vals(len(out.Val.Data))
	if zeroUp {
		clear(up)
	}
	loss := e.tp.sumAll(e.tp.Mul(out, e.tp.Const(&tensor.Matrix{Rows: out.Rows(), Cols: out.Cols(), Data: up})))
	for i, n := range e.nodes {
		if (i+int(seed))%2 == 0 && n.needsGrad {
			later := e.tp.sumAll(e.tp.Mul(n, e.tp.Const(e.matrix(n.Rows(), n.Cols()))))
			loss = e.tp.Add(loss, later)
		}
	}
	e.tp.Backward(loss)
	res := fusedResult{val: bits(out.Val.Data), weights: bits(w), calls: e.calls}
	for _, n := range e.nodes {
		res.grads = append(res.grads, bits(n.grad))
	}
	return res
}

func compareFused(t *testing.T, name string, fused, composed fusedResult) {
	t.Helper()
	switch {
	case !slices.Equal(fused.val, composed.val):
		t.Fatalf("%s: value %x, composition %x", name, fused.val, composed.val)
	case !slices.Equal(fused.weights, composed.weights):
		t.Fatalf("%s: weights %x, composition %x", name, fused.weights, composed.weights)
	case len(fused.calls) != len(composed.calls):
		t.Fatalf("%s: %d AddRowGrad calls, composition %d", name, len(fused.calls), len(composed.calls))
	}
	for i, g := range fused.grads {
		if !slices.Equal(g, composed.grads[i]) {
			t.Fatalf("%s: operand %d gradient %x, composition %x", name, i, g, composed.grads[i])
		}
	}
	for i, c := range fused.calls {
		o := composed.calls[i]
		if c.sink != o.sink || c.id != o.id || !slices.Equal(c.grad, o.grad) {
			t.Fatalf("%s: AddRowGrad call %d is %+v, composition %+v", name, i, c, o)
		}
	}
}

// TestFusedOpsMatchComposition holds each fused op to the composition of
// primitive ops it replaces, bit for bit: value, attention weights,
// every operand's gradient and the sinks' AddRowGrad calls. Inputs are
// seeded and hold zeros and negative zeros; operands are parameters with
// seeded gradients, op outputs with fresh ones, or constants; the shapes
// include a one-row H, one-row neighbor groups and one-column rows; and
// each case also runs with an all-zero upstream gradient, and at a scale
// where softmax weights underflow to exact zeros.
func TestFusedOpsMatchComposition(t *testing.T) {
	seed := uint64(0)
	both := func(name string, fused, composed func(e *fusedEnv) (*Node, []float32)) {
		t.Helper()
		seed++
		for _, zeroUp := range []bool{false, true} {
			for _, scale := range []float32{1, 1000} {
				full := fmt.Sprintf("%s zeroUp=%v scale=%v", name, zeroUp, scale)
				compareFused(t, full, runFusedCase(seed, zeroUp, scale, fused), runFusedCase(seed, zeroUp, scale, composed))
			}
		}
	}
	for _, sh := range [][2]int{{1, 4}, {3, 1}, {5, 8}, {4, 32}} {
		rows, d := sh[0], sh[1]
		for hk := range numKinds {
			for ck := range numKinds {
				operands := func(e *fusedEnv) (h, c *Node) {
					return e.operand(hk, rows, d), e.operand(ck, 1, d)
				}
				both(fmt.Sprintf("SlotAttention %dx%d kinds %d/%d", rows, d, hk, ck),
					func(e *fusedEnv) (*Node, []float32) {
						out := e.tp.SlotAttention(operands(e))
						return out, out.AttentionWeights()
					},
					func(e *fusedEnv) (*Node, []float32) {
						h, c := operands(e)
						out, w := slotAttentionComposed(e.tp, h, c)
						return out, w.Val.Data
					})
			}
		}
	}
	for _, sh := range [][2]int{{1, 4}, {3, 1}, {7, 8}} {
		m, d := sh[0], sh[1]
		for kinds := range numKinds * numKinds * numKinds * numKinds {
			qk, ck, ak, kk := kinds%3, kinds/3%3, kinds/9%3, kinds/27
			operands := func(e *fusedEnv) (q, c, a *Node, ks []*Node) {
				q, c, a = e.operand(qk, 1, d), e.operand(ck, 1, d), e.operand(ak, 3*d, 1)
				for j := range m {
					ks = append(ks, e.operand((kk+j)%numKinds, 1, d))
				}
				return q, c, a, ks
			}
			both(fmt.Sprintf("EdgeAttention %d rows of %d, kinds %d/%d/%d/%d", m, d, qk, ck, ak, kk),
				func(e *fusedEnv) (*Node, []float32) {
					q, c, a, ks := operands(e)
					out := e.tp.EdgeAttention(0.2, q, c, a, ks)
					return out, out.AttentionWeights()
				},
				func(e *fusedEnv) (*Node, []float32) {
					q, c, a, ks := operands(e)
					out, w := edgeAttentionComposed(e.tp, 0.2, q, c, a, ks)
					return out, w.Val.Data
				})
		}
	}
	type slotSpec struct {
		table int
		ids   []int32
		mean  bool
		sink  bool
	}
	for i, spec := range [][]slotSpec{
		{{0, []int32{2}, false, true}},
		{{1, []int32{4}, true, true}},
		{{0, []int32{2}, false, true}, {1, []int32{1, 4, 1}, true, true}, {2, []int32{5}, false, false}, {0, []int32{3, 0}, true, true}},
		{{2, []int32{0}, false, true}, {2, []int32{0}, false, true}, {1, []int32{5, 5}, true, false}},
	} {
		for _, d := range []int{1, 6} {
			slots := func(e *fusedEnv) []Slot {
				tables := []*tensor.Matrix{e.matrix(6, d), e.matrix(6, d), e.matrix(6, d)}
				out := make([]Slot, len(spec))
				for s, sp := range spec {
					out[s] = Slot{Table: tables[sp.table], IDs: sp.ids, Mean: sp.mean}
					if sp.sink {
						out[s].Sink = e.sink(sp.table)
					}
				}
				return out
			}
			both(fmt.Sprintf("GatherSlots set %d, %d columns", i, d),
				func(e *fusedEnv) (*Node, []float32) { return e.tp.GatherSlots(slots(e)...), nil },
				func(e *fusedEnv) (*Node, []float32) { return gatherSlotsComposed(e.tp, slots(e)), nil })
		}
	}
}

// zeroAdd must not be folded to x: a fresh gradient's first add turns −0
// into +0, and the fused backwards rely on it.
func TestZeroAddClearsNegativeZero(t *testing.T) {
	if got := zeroAdd(float32(math.Copysign(0, -1))); math.Float32bits(got) != 0 {
		t.Fatalf("zeroAdd(-0) = %x, want +0", math.Float32bits(got))
	}
}
