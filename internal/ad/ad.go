// Package ad implements a small reverse-mode automatic-differentiation
// engine over float32 matrices. It is the training substrate standing in
// for the paper's TensorFlow/XDL stack: every model in this reproduction
// (Zoomer and all baselines) builds its forward pass as a tape of ad
// operations and obtains exact gradients with Backward.
//
// The design is a dynamic tape ("define-by-run"): each operation appends a
// node holding its output value, its op kind and its operands. Backward
// walks the tape in reverse and propagates each node's gradient to its
// operands with one switch over op kinds. Gradients accumulate, so shared
// subexpressions and parameter reuse work naturally.
//
// A tape owns its memory. Node values, gradients, the nodes themselves
// and the operand lists of variadic ops are carved, zeroed, from chunked
// slabs, and Reset rewinds the slabs for the next forward/backward cycle.
// A training loop holds one tape for the whole run, so a step in steady
// state allocates nothing here. The price is a lifetime: a node, its Val
// and its gradient are valid until the tape's next Reset, and callers
// that keep a value past it copy it out.
//
// Parameters live outside the tape (see package nn); they join a forward
// pass via Tape.Watch, which wires a persistent gradient buffer into the
// tape so that optimizers can read accumulated gradients after Backward.
// Embedding tables join via Tape.GatherSlots, which scatters row
// gradients into a GradSink.
//
// Zoomer's per-node chains are fused ops, one node each where the
// compositions of primitive ops they replace recorded from 4 (a user's
// feature matrix) to 3m+4 (edge attention over m rows):
//
//   - GatherSlots: a node's feature matrix, one row per slot, each
//     gathered from its own table, a Mean slot averaging its rows
//     (ConcatRows over a gather per slot, MeanRows over a Mean slot's).
//   - SlotAttention: softmax(H·cᵀ/√d)·H, the feature level (MatMul,
//     transposes, Scale, SoftmaxRows, MatMul).
//   - EdgeAttention: softmax_j(LeakyReLU([q ‖ k_j ‖ c]·a))·K over one
//     neighbor type, the edge level (per row ConcatCols, MatMul and
//     LeakyReLU; ConcatCols, SoftmaxRows, ConcatRows and MatMul).
//
// A fused op is bit-identical to its composition. Its forward does the
// composition's float ops on the same operands in the same order,
// GemmAcc's zero-skipped serial sums and Axpy-kernel rows included. Its
// backward replays, for every gradient buffer it touches, the adds the
// reversed composition made, in their order: an intermediate gradient
// the composition carved fresh is 0 + x, never x, because of −0; sibling
// rows are walked last to first; and sinks get their AddRowGrad calls in
// the composition's order. TestFusedOpsMatchComposition holds each op to
// its composition, written in the primitive ops, bit for bit.
package ad

import (
	"fmt"
	"math"

	"zoomer/internal/tensor"
)

// opKind is the operation that produced a node; Backward switches on it.
type opKind uint8

const (
	opLeaf opKind = iota // Const and Watch: nothing to propagate
	opAdd
	opSub
	opMul
	opDiv
	opScale
	opMatMul
	opAddBias
	opConcatCols
	opConcatRows
	opSoftmaxRows
	opSigmoid
	opTanh
	opReLU
	opLeakyReLU
	opSqrt
	opSumAll
	opMeanRows
	opBCE
	opFocalBCE
	opTranspose
	opScaleBy
	opGather
	opGatherSlots
	opSlotAttention
	opEdgeAttention
)

// Node is one value in a computation graph: an output matrix plus what
// Backward needs to propagate its gradient to its operands. Nodes are
// created only through Tape methods and live until the tape's next Reset.
type Node struct {
	// Val is the forward value. It must not be mutated after creation.
	Val tensor.Matrix
	// grad is dL/dVal, carved lazily during Backward (or the parameter's
	// persistent buffer, for Watch).
	grad []float32

	a, b      *Node
	ins       []*Node // ConcatCols/ConcatRows operands; EdgeAttention's a, then its rows
	aux       *aux    // the gathers', the losses' and the attention ops' operands
	tape      *Tape
	alpha     float32 // Scale's factor; LeakyReLU's and EdgeAttention's slope
	op        opKind
	needsGrad bool
}

// aux holds the operands of the ops whose operands are not nodes.
type aux struct {
	ids     []int32   // gather's rows
	sink    GradSink  // gather's gradient destination
	slots   []Slot    // GatherSlots' slots, their IDs copied into the tape
	targets []float32 // the losses' labels
	weights []float32 // the attention ops' softmax weights
	scores  []float32 // EdgeAttention's scores before LeakyReLU
	gamma   float64   // FocalBCEWithLogits
}

// Rows returns the row count of the node's value.
func (n *Node) Rows() int { return n.Val.Rows }

// Cols returns the column count of the node's value.
func (n *Node) Cols() int { return n.Val.Cols }

// Scalar returns the single element of a 1x1 node. It panics otherwise.
func (n *Node) Scalar() float32 {
	if n.Val.Rows != 1 || n.Val.Cols != 1 {
		panic(fmt.Sprintf("ad: Scalar on %dx%d node", n.Val.Rows, n.Val.Cols))
	}
	return n.Val.Data[0]
}

func (n *Node) ensureGrad() []float32 {
	if n.grad == nil {
		n.grad = n.tape.matrix(n.Val.Rows, n.Val.Cols).Data
	}
	return n.grad
}

// gradMatrix is n's gradient as a matrix of n's shape.
func (n *Node) gradMatrix() tensor.Matrix {
	return tensor.Matrix{Rows: n.Val.Rows, Cols: n.Val.Cols, Data: n.ensureGrad()}
}

// row returns row i of a matrix of n's shape stored in data.
func (n *Node) row(data []float32, i int) []float32 {
	c := n.Val.Cols
	return data[i*c : (i+1)*c]
}

// GradSink receives the gradient of rows gathered from storage outside
// the tape (Tape.GatherSlots): an embedding table's sparse gradient.
type GradSink interface {
	// AddRowGrad accumulates grad into the gradient of row id. grad is
	// only valid during the call.
	AddRowGrad(id int32, grad []float32)
}

// Slab chunk lengths, in elements: the most a chunk holds unless one take
// needs more. A tape's first chunk is 1/64 of that, and each further chunk
// doubles, so a one-off inference tape stays small; chunks are kept and
// reused by every later cycle.
const (
	floatChunk = 1 << 16
	nodeChunk  = 1 << 10
	ptrChunk   = 1 << 12
	idChunk    = 1 << 12
)

// slab hands out zeroed slices carved from chunks it keeps across rewinds.
type slab[T any] struct {
	chunks [][]T
	size   int // the chunk length cap
	cur    int // chunk being carved; len(chunks) before the first take
	off    int // next free element of chunks[cur]
}

func (s *slab[T]) take(n int) []T {
	if s.cur < len(s.chunks) && s.off+n <= len(s.chunks[s.cur]) {
		out := s.chunks[s.cur][s.off : s.off+n : s.off+n]
		s.off += n
		clear(out)
		return out
	}
	if s.cur < len(s.chunks) {
		s.cur++
	}
	if s.cur == len(s.chunks) || len(s.chunks[s.cur]) < n {
		size := s.size / 64
		if s.cur > 0 {
			size = min(s.size, 2*len(s.chunks[s.cur-1]))
		}
		c := make([]T, max(size, n))
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, c)
		} else {
			s.chunks[s.cur] = c
		}
	}
	out := s.chunks[s.cur][:n:n]
	s.off = n
	clear(out)
	return out
}

func (s *slab[T]) rewind() { s.cur, s.off = 0, 0 }

// Tape records operations for reverse-mode differentiation, one
// forward/backward cycle at a time: Reset starts the next cycle and
// invalidates every node, value and gradient of the previous one. Tapes
// are not safe for concurrent use.
type Tape struct {
	nodes  []*Node // creation order, the order Backward reverses
	store  slab[Node]
	auxes  slab[aux]
	floats slab[float32]
	ptrs   slab[*Node]
	ids    slab[int32]
	slots  slab[Slot]
	bytes  int
	// scr is the fused ops' backward scratch, reused by each.
	scr []float32
}

// NewTape returns an empty tape.
func NewTape() *Tape {
	return &Tape{
		store:  slab[Node]{size: nodeChunk},
		auxes:  slab[aux]{size: nodeChunk},
		floats: slab[float32]{size: floatChunk},
		ptrs:   slab[*Node]{size: ptrChunk},
		ids:    slab[int32]{size: idChunk},
		slots:  slab[Slot]{size: nodeChunk},
	}
}

// Reset rewinds the tape for a new cycle, keeping its memory. Every node
// recorded so far, with its Val and gradient, is invalid afterwards.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.store.rewind()
	t.auxes.rewind()
	t.floats.rewind()
	t.ptrs.rewind()
	t.ids.rewind()
	t.slots.rewind()
	t.bytes = 0
}

// Len reports the number of nodes recorded since the last Reset, useful
// for memory accounting in the efficiency experiments.
func (t *Tape) Len() int { return len(t.nodes) }

// Bytes reports the bytes of node values and gradients carved since the
// last Reset: the tape's working set for the cycle, independent of how
// its slabs happen to be chunked.
func (t *Tape) Bytes() int { return t.bytes }

// Nodes returns a list of n nil node pointers carved from the tape, valid
// until Reset: scratch for models that gather operands (per-type
// neighbor embeddings, per-example rows) before a variadic op.
func (t *Tape) Nodes(n int) []*Node { return t.ptrs.take(n) }

// matrix carves a zeroed rows x cols matrix from the tape.
func (t *Tape) matrix(rows, cols int) tensor.Matrix {
	if rows < 0 || cols < 0 {
		panic("ad: negative matrix dimension")
	}
	t.bytes += 4 * rows * cols
	return tensor.Matrix{Rows: rows, Cols: cols, Data: t.floats.take(rows * cols)}
}

// node records a new op node over a, b with a carved, zeroed rows x cols
// value.
func (t *Tape) node(op opKind, rows, cols int, needsGrad bool, a, b *Node) *Node {
	n := t.leaf(t.matrix(rows, cols), needsGrad)
	n.op, n.a, n.b = op, a, b
	return n
}

func (t *Tape) leaf(val tensor.Matrix, needsGrad bool) *Node {
	n := &t.store.take(1)[0]
	n.Val, n.tape, n.needsGrad = val, t, needsGrad
	t.nodes = append(t.nodes, n)
	return n
}

// Const introduces a matrix that does not require gradients.
func (t *Tape) Const(m *tensor.Matrix) *Node {
	return t.leaf(*m, false)
}

// Watch introduces a parameter: val is the parameter storage and grad the
// persistent gradient buffer gradients accumulate into. Both must share a
// shape. Optimizers own zeroing grad between steps.
func (t *Tape) Watch(val, grad *tensor.Matrix) *Node {
	if val.Rows != grad.Rows || val.Cols != grad.Cols {
		panic("ad: Watch value/grad shape mismatch")
	}
	n := t.leaf(*val, true)
	n.grad = grad.Data
	return n
}

// scratch returns n floats of the tape's backward scratch, contents
// arbitrary.
func (t *Tape) scratch(n int) []float32 {
	if cap(t.scr) < n {
		t.scr = make([]float32, n)
	}
	return t.scr[:n]
}

// gather introduces the rows ids of table as a len(ids) x table.Cols
// node. The rows are copied, and so are the ids; when sink is non-nil,
// Backward hands it each gathered row's gradient, in row order.
// GatherSlots is the gather models use; this one is the primitive its
// composition is written in.
func (t *Tape) gather(table *tensor.Matrix, ids []int32, sink GradSink) *Node {
	out := t.node(opGather, len(ids), table.Cols, sink != nil, nil, nil)
	for i, id := range ids {
		copy(out.Val.Row(i), table.Row(int(id)))
	}
	out.aux = &t.auxes.take(1)[0]
	out.aux.ids = t.ids.take(len(ids))
	copy(out.aux.ids, ids)
	out.aux.sink = sink
	return out
}

// Backward runs reverse-mode accumulation from root, which must be a 1x1
// scalar node (a loss). It seeds dL/droot = 1 and walks the tape in
// reverse creation order, which is a valid topological order for a
// define-by-run graph.
func (t *Tape) Backward(root *Node) {
	if root.tape != t {
		panic("ad: Backward on node from another tape")
	}
	if root.Val.Rows != 1 || root.Val.Cols != 1 {
		panic(fmt.Sprintf("ad: Backward root must be scalar, got %dx%d", root.Val.Rows, root.Val.Cols))
	}
	root.ensureGrad()[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.op != opLeaf && n.grad != nil && n.needsGrad {
			n.backward()
		}
	}
}

// backward propagates n's gradient into its operands: for each op the same
// per-element float operations, in the same order, as its forward
// definition below implies.
func (n *Node) backward() {
	a, b, og := n.a, n.b, n.grad
	switch n.op {
	case opAdd:
		if a.needsGrad {
			addTo(a.ensureGrad(), og)
		}
		if b.needsGrad {
			addTo(b.ensureGrad(), og)
		}
	case opSub:
		if a.needsGrad {
			addTo(a.ensureGrad(), og)
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g {
				g[i] -= og[i]
			}
		}
	case opMul:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g {
				g[i] += og[i] * b.Val.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g {
				g[i] += og[i] * a.Val.Data[i]
			}
		}
	case opDiv:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g {
				g[i] += og[i] / guardDenom(b.Val.Data[i])
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g {
				g[i] -= og[i] * n.Val.Data[i] / guardDenom(b.Val.Data[i])
			}
		}
	case opScale:
		g := a.ensureGrad()
		for i := range g {
			g[i] += n.alpha * og[i]
		}
	case opMatMul:
		dout := n.gradMatrix()
		if a.needsGrad {
			ga := a.gradMatrix()
			tensor.GemmAcc(&ga, &dout, &b.Val, false, true)
		}
		if b.needsGrad {
			gb := b.gradMatrix()
			tensor.GemmAcc(&gb, &a.Val, &dout, true, false)
		}
	case opAddBias:
		if a.needsGrad {
			addTo(a.ensureGrad(), og)
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := 0; i < n.Rows(); i++ {
				row := n.row(og, i)
				for j := range row {
					g[j] += row[j]
				}
			}
		}
	case opConcatCols:
		off := 0
		for _, in := range n.ins {
			if in.needsGrad {
				g := in.ensureGrad()
				for i := 0; i < n.Rows(); i++ {
					grow := n.row(og, i)[off : off+in.Cols()]
					dst := in.row(g, i)
					for j := range dst {
						dst[j] += grow[j]
					}
				}
			}
			off += in.Cols()
		}
	case opConcatRows:
		cols, off := n.Cols(), 0
		for _, in := range n.ins {
			if in.needsGrad {
				addTo(in.ensureGrad(), og[off*cols:(off+in.Rows())*cols])
			}
			off += in.Rows()
		}
	case opSoftmaxRows:
		g := a.ensureGrad()
		for i := 0; i < a.Rows(); i++ {
			y := n.Val.Row(i)
			dy := n.row(og, i)
			dot := softmaxDot(y, dy)
			dst := a.row(g, i)
			for j := range y {
				dst[j] += y[j] * (dy[j] - dot)
			}
		}
	case opSigmoid:
		g, y := a.ensureGrad(), n.Val.Data
		for i := range g {
			g[i] += og[i] * (y[i] * (1 - y[i]))
		}
	case opTanh:
		g, y := a.ensureGrad(), n.Val.Data
		for i := range g {
			g[i] += og[i] * (1 - y[i]*y[i])
		}
	case opReLU, opLeakyReLU:
		neg := float32(0)
		if n.op == opLeakyReLU {
			neg = n.alpha
		}
		g, x := a.ensureGrad(), a.Val.Data
		for i := range g {
			d := neg
			if x[i] > 0 {
				d = 1
			}
			g[i] += og[i] * d
		}
	case opSqrt:
		g, y := a.ensureGrad(), n.Val.Data
		for i := range g {
			g[i] += og[i] * (1 / (2 * y[i]))
		}
	case opSumAll:
		g, d := a.ensureGrad(), og[0]
		for i := range g {
			g[i] += d
		}
	case opMeanRows:
		g, inv := a.ensureGrad(), 1/float32(a.Rows())
		for i := 0; i < a.Rows(); i++ {
			dst := a.row(g, i)
			for j := range dst {
				dst[j] += og[j] * inv
			}
		}
	case opBCE:
		g := a.ensureGrad()
		targets := n.aux.targets
		scale := og[0] / float32(len(targets))
		for i, x := range a.Val.Data {
			g[i] += scale * (tensor.Sigmoid(x) - targets[i])
		}
	case opFocalBCE:
		g := a.ensureGrad()
		targets := n.aux.targets
		scale := float64(og[0]) / float64(len(targets))
		for i, x := range a.Val.Data {
			_, grad := focalTerm(x, targets[i], n.aux.gamma)
			g[i] += float32(scale * grad)
		}
	case opTranspose:
		g := a.ensureGrad()
		for i := 0; i < n.Rows(); i++ {
			for j := 0; j < n.Cols(); j++ {
				g[j*a.Cols()+i] += og[i*n.Cols()+j]
			}
		}
	case opScaleBy:
		// a is the 1x1 scalar, b the scaled matrix.
		if b.needsGrad {
			g, s := b.ensureGrad(), a.Val.Data[0]
			for i := range g {
				g[i] += s * og[i]
			}
		}
		if a.needsGrad {
			var acc float64
			for i, v := range b.Val.Data {
				acc += float64(v) * float64(og[i])
			}
			a.ensureGrad()[0] += float32(acc)
		}
	case opGather:
		for i, id := range n.aux.ids {
			n.aux.sink.AddRowGrad(id, n.row(og, i))
		}
	case opGatherSlots:
		n.gatherSlotsBackward()
	case opSlotAttention:
		n.slotAttentionBackward()
	case opEdgeAttention:
		n.edgeAttentionBackward()
	default:
		panic(fmt.Sprintf("ad: no backward for op %d", n.op))
	}
}

// softmaxDot is y·dy in float64, rounded: the term SoftmaxRows' backward
// subtracts from each dy.
func softmaxDot(y, dy []float32) float32 {
	var dot float64
	for j := range y {
		dot += float64(y[j]) * float64(dy[j])
	}
	return float32(dot)
}

// addTo accumulates src into dst element-wise.
func addTo(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func anyNeedsGrad(a, b *Node) bool { return a.needsGrad || b.needsGrad }

func sameShape(a, b *Node) {
	if a.Val.Rows != b.Val.Rows || a.Val.Cols != b.Val.Cols {
		panic(fmt.Sprintf("ad: shape mismatch %dx%d vs %dx%d", a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	sameShape(a, b)
	out := t.node(opAdd, a.Rows(), a.Cols(), anyNeedsGrad(a, b), a, b)
	for i := range out.Val.Data {
		out.Val.Data[i] = a.Val.Data[i] + b.Val.Data[i]
	}
	return out
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	sameShape(a, b)
	out := t.node(opSub, a.Rows(), a.Cols(), anyNeedsGrad(a, b), a, b)
	for i := range out.Val.Data {
		out.Val.Data[i] = a.Val.Data[i] - b.Val.Data[i]
	}
	return out
}

// Mul returns the element-wise product a * b (same shape).
func (t *Tape) Mul(a, b *Node) *Node {
	sameShape(a, b)
	out := t.node(opMul, a.Rows(), a.Cols(), anyNeedsGrad(a, b), a, b)
	for i := range out.Val.Data {
		out.Val.Data[i] = a.Val.Data[i] * b.Val.Data[i]
	}
	return out
}

// divEps guards div's denominators against division by near-zero.
const divEps = 1e-8

func guardDenom(v float32) float32 {
	if v >= 0 && v < divEps {
		return divEps
	}
	if v < 0 && v > -divEps {
		return -divEps
	}
	return v
}

// div returns element-wise a / b with epsilon-guarded denominators.
func (t *Tape) div(a, b *Node) *Node {
	sameShape(a, b)
	out := t.node(opDiv, a.Rows(), a.Cols(), anyNeedsGrad(a, b), a, b)
	for i := range out.Val.Data {
		out.Val.Data[i] = a.Val.Data[i] / guardDenom(b.Val.Data[i])
	}
	return out
}

// Scale returns alpha * a.
func (t *Tape) Scale(alpha float32, a *Node) *Node {
	out := t.node(opScale, a.Rows(), a.Cols(), a.needsGrad, a, nil)
	out.alpha = alpha
	for i := range out.Val.Data {
		out.Val.Data[i] = alpha * a.Val.Data[i]
	}
	return out
}

// MatMul returns a · b, accumulated into a zeroed product in GemmAcc's
// i-k-j order.
func (t *Tape) MatMul(a, b *Node) *Node {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("ad: MatMul shape mismatch (%dx%d)·(%dx%d)", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	out := t.node(opMatMul, a.Rows(), b.Cols(), anyNeedsGrad(a, b), a, b)
	tensor.GemmAcc(&out.Val, &a.Val, &b.Val, false, false)
	return out
}

// AddBias returns m + bias broadcast over rows; bias must be 1 x m.Cols.
func (t *Tape) AddBias(m, bias *Node) *Node {
	if bias.Rows() != 1 || bias.Cols() != m.Cols() {
		panic(fmt.Sprintf("ad: AddBias bias shape %dx%d for matrix %dx%d", bias.Rows(), bias.Cols(), m.Rows(), m.Cols()))
	}
	out := t.node(opAddBias, m.Rows(), m.Cols(), anyNeedsGrad(m, bias), m, bias)
	for i := 0; i < m.Rows(); i++ {
		row := m.Val.Row(i)
		orow := out.Val.Row(i)
		for j := range orow {
			orow[j] = row[j] + bias.Val.Data[j]
		}
	}
	return out
}

// operands records a variadic op's inputs in a tape-carved list and
// reports whether any needs a gradient.
func (t *Tape) operands(nodes []*Node) ([]*Node, bool) {
	ins := t.ptrs.take(len(nodes))
	copy(ins, nodes)
	needsGrad := false
	for _, n := range nodes {
		needsGrad = needsGrad || n.needsGrad
	}
	return ins, needsGrad
}

// ConcatCols concatenates nodes horizontally; all must share a row count.
func (t *Tape) ConcatCols(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("ad: ConcatCols of nothing")
	}
	rows := nodes[0].Rows()
	total := 0
	for _, n := range nodes {
		if n.Rows() != rows {
			panic("ad: ConcatCols row mismatch")
		}
		total += n.Cols()
	}
	ins, needsGrad := t.operands(nodes)
	out := t.node(opConcatCols, rows, total, needsGrad, nil, nil)
	out.ins = ins
	off := 0
	for _, n := range nodes {
		for i := 0; i < rows; i++ {
			copy(out.Val.Row(i)[off:off+n.Cols()], n.Val.Row(i))
		}
		off += n.Cols()
	}
	return out
}

// ConcatRows concatenates nodes vertically; all must share a column count.
func (t *Tape) ConcatRows(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("ad: ConcatRows of nothing")
	}
	cols := nodes[0].Cols()
	total := 0
	for _, n := range nodes {
		if n.Cols() != cols {
			panic("ad: ConcatRows column mismatch")
		}
		total += n.Rows()
	}
	ins, needsGrad := t.operands(nodes)
	out := t.node(opConcatRows, total, cols, needsGrad, nil, nil)
	out.ins = ins
	off := 0
	for _, n := range nodes {
		copy(out.Val.Data[off*cols:], n.Val.Data)
		off += n.Rows()
	}
	return out
}

// SoftmaxRows applies softmax independently to each row.
func (t *Tape) SoftmaxRows(m *Node) *Node {
	out := t.node(opSoftmaxRows, m.Rows(), m.Cols(), m.needsGrad, m, nil)
	for i := 0; i < m.Rows(); i++ {
		tensor.Softmax(m.Val.Row(i), out.Val.Row(i))
	}
	return out
}

// unary records an element-wise op over a; the caller fills the value.
func (t *Tape) unary(op opKind, a *Node) (out *Node, x, y []float32) {
	out = t.node(op, a.Rows(), a.Cols(), a.needsGrad, a, nil)
	return out, a.Val.Data, out.Val.Data
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out, x, y := t.unary(opSigmoid, a)
	for i := range x {
		y[i] = tensor.Sigmoid(x[i])
	}
	return out
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	out, x, y := t.unary(opTanh, a)
	for i := range x {
		y[i] = float32(math.Tanh(float64(x[i])))
	}
	return out
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	out, x, y := t.unary(opReLU, a)
	for i := range x {
		if x[i] > 0 {
			y[i] = x[i]
		}
	}
	return out
}

// LeakyReLU applies x>0 ? x : alpha*x element-wise (the GAT/paper
// attention nonlinearity, conventionally alpha=0.2).
func (t *Tape) LeakyReLU(alpha float32, a *Node) *Node {
	out, x, y := t.unary(opLeakyReLU, a)
	out.alpha = alpha
	for i := range x {
		if x[i] > 0 {
			y[i] = x[i]
		} else {
			y[i] = alpha * x[i]
		}
	}
	return out
}

// sqrt applies sqrt(max(x, 0) + eps) element-wise; the epsilon keeps the
// derivative finite at zero, which matters for norm computations.
func (t *Tape) sqrt(a *Node) *Node {
	const eps = 1e-12
	out, x, y := t.unary(opSqrt, a)
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		y[i] = float32(math.Sqrt(float64(v) + eps))
	}
	return out
}

// sumAll reduces to a 1x1 scalar node holding the sum of all elements.
func (t *Tape) sumAll(a *Node) *Node {
	var s float64
	for _, v := range a.Val.Data {
		s += float64(v)
	}
	out := t.node(opSumAll, 1, 1, a.needsGrad, a, nil)
	out.Val.Data[0] = float32(s)
	return out
}

// MeanRows returns the 1 x Cols mean over rows (mean pooling).
func (t *Tape) MeanRows(a *Node) *Node {
	if a.Rows() == 0 {
		panic("ad: MeanRows of empty node")
	}
	out := t.node(opMeanRows, 1, a.Cols(), a.needsGrad, a, nil)
	val := out.Val.Data
	for i := 0; i < a.Rows(); i++ {
		row := a.Val.Row(i)
		for j, v := range row {
			val[j] += v
		}
	}
	inv := 1 / float32(a.Rows())
	for j := range val {
		val[j] *= inv
	}
	return out
}

// dot returns the scalar inner product of two 1xN (or Nx1) nodes.
func (t *Tape) dot(a, b *Node) *Node {
	return t.sumAll(t.Mul(a, b))
}

// norm returns the scalar Euclidean norm of a node's elements.
func (t *Tape) norm(a *Node) *Node {
	return t.sqrt(t.sumAll(t.Mul(a, a)))
}

// CosineSim returns the scalar cosine similarity of two same-shape nodes,
// the twin-tower scoring function (score = cos(uq, i)) and the
// semantic-combination weight of eq. (10).
func (t *Tape) CosineSim(a, b *Node) *Node {
	sameShape(a, b)
	return t.div(t.dot(a, b), t.Mul(t.norm(a), t.norm(b)))
}

// loss records a scalar loss node over logits, with targets copied into
// the tape.
func (t *Tape) loss(op opKind, logits *Node, targets []float32, value float64) *Node {
	out := t.node(op, 1, 1, logits.needsGrad, logits, nil)
	out.Val.Data[0] = float32(value / float64(len(targets)))
	out.aux = &t.auxes.take(1)[0]
	out.aux.targets = t.floats.take(len(targets))
	copy(out.aux.targets, targets)
	return out
}

func checkLoss(name string, logits *Node, targets []float32) {
	if n := len(logits.Val.Data); n != len(targets) {
		panic(fmt.Sprintf("ad: %s %d logits vs %d targets", name, n, len(targets)))
	}
	if len(targets) == 0 {
		panic(fmt.Sprintf("ad: %s with no samples", name))
	}
}

// BCEWithLogits returns the mean binary cross-entropy between logits (any
// shape) and targets (same element count, values in [0,1]), computed in
// the numerically stable log-sum-exp form. The gradient with respect to
// each logit is (sigmoid(x) - z) / n.
func (t *Tape) BCEWithLogits(logits *Node, targets []float32) *Node {
	checkLoss("BCEWithLogits", logits, targets)
	var loss float64
	for i, x64 := range logits.Val.Data {
		x := float64(x64)
		z := float64(targets[i])
		// max(x,0) - x*z + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*z + math.Log1p(math.Exp(-math.Abs(x)))
	}
	return t.loss(opBCE, logits, targets, loss)
}

// FocalBCEWithLogits returns the mean focal binary cross-entropy
// (Lin et al.) with focusing parameter gamma, the loss the paper trains
// Zoomer with ("focal cross-entropy loss ... focal weight to 2"):
//
//	FL = -z·(1-p)^γ·log p - (1-z)·p^γ·log(1-p),  p = sigmoid(x)
//
// Gradients are computed analytically in float64 for stability.
func (t *Tape) FocalBCEWithLogits(logits *Node, targets []float32, gamma float64) *Node {
	checkLoss("FocalBCEWithLogits", logits, targets)
	var loss float64
	for i, x := range logits.Val.Data {
		l, _ := focalTerm(x, targets[i], gamma)
		loss += l
	}
	out := t.loss(opFocalBCE, logits, targets, loss)
	out.aux.gamma = gamma
	return out
}

// focalTerm returns one logit's focal loss and its derivative dFL/dx.
// Forward and backward both call it, so the gradient Backward applies is
// the one the forward pass would have computed.
func focalTerm(x32, z32 float32, gamma float64) (loss, grad float64) {
	const eps = 1e-9
	x, z := float64(x32), float64(z32)
	p := 1 / (1 + math.Exp(-x))
	p = math.Min(math.Max(p, eps), 1-eps)
	q := 1 - p
	logP, logQ := math.Log(p), math.Log(q)
	loss = -z*math.Pow(q, gamma)*logP - (1-z)*math.Pow(p, gamma)*logQ
	// d/dp of the positive term: -z [ -γ(1-p)^{γ-1} log p + (1-p)^γ / p ]
	dpos := -z * (-gamma*math.Pow(q, gamma-1)*logP + math.Pow(q, gamma)/p)
	// d/dp of the negative term: -(1-z) [ γ p^{γ-1} log(1-p) - p^γ/(1-p) ]
	dneg := -(1 - z) * (gamma*math.Pow(p, gamma-1)*logQ - math.Pow(p, gamma)/q)
	return loss, (dpos + dneg) * p * q // chain through dp/dx = p(1-p)
}

// transpose returns aᵀ: a primitive SlotAttention's composition is
// written in.
func (t *Tape) transpose(a *Node) *Node {
	out := t.node(opTranspose, a.Cols(), a.Rows(), a.needsGrad, a, nil)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			out.Val.Data[j*out.Cols()+i] = a.Val.Data[i*a.Cols()+j]
		}
	}
	return out
}

// ScaleBy multiplies every element of m by a 1x1 scalar node: the
// semantic-combination step (eq. 11) scales per-type aggregates by their
// learned/cosine weights.
func (t *Tape) ScaleBy(scalar, m *Node) *Node {
	if scalar.Val.Rows != 1 || scalar.Val.Cols != 1 {
		panic("ad: ScaleBy needs a 1x1 scalar node")
	}
	s := scalar.Val.Data[0]
	out := t.node(opScaleBy, m.Rows(), m.Cols(), anyNeedsGrad(scalar, m), scalar, m)
	for i, v := range m.Val.Data {
		out.Val.Data[i] = s * v
	}
	return out
}
