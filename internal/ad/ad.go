// Package ad implements a small reverse-mode automatic-differentiation
// engine over float32 matrices. It is the training substrate standing in
// for the paper's TensorFlow/XDL stack: every model in this reproduction
// (Zoomer and all baselines) builds its forward pass as a tape of ad
// operations and obtains exact gradients with Backward.
//
// The design is a dynamic tape ("define-by-run"): each operation appends a
// node holding its output value and a closure that propagates the output
// gradient to the operation's inputs. Backward walks the tape in reverse.
// Gradients accumulate, so shared subexpressions and parameter reuse work
// naturally.
//
// Parameters live outside the tape (see package nn); they join a forward
// pass via Tape.Watch, which wires a persistent gradient buffer into the
// tape so that optimizers can read accumulated gradients after Backward.
package ad

import (
	"fmt"
	"math"

	"zoomer/internal/tensor"
)

// Node is one value in a computation graph: an output matrix plus the
// machinery to propagate gradients to its inputs. Nodes are created only
// through Tape methods.
type Node struct {
	// Val is the forward value. It must not be mutated after creation.
	Val *tensor.Matrix
	// Grad is dL/dVal, allocated lazily during Backward (or supplied by
	// Watch for parameter nodes).
	Grad *tensor.Matrix

	tape      *Tape
	needsGrad bool
	back      func() // propagate n.Grad into input nodes; nil for leaves
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

func (n *Node) ensureGrad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = tensor.NewMatrix(n.Val.Rows, n.Val.Cols)
	}
	return n.Grad
}

// Tape records operations for reverse-mode differentiation. A Tape is for
// a single forward/backward cycle; allocate a fresh one per training step.
// Tapes are not safe for concurrent use.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Len reports the number of recorded nodes, useful for memory accounting
// in the efficiency experiments.
func (t *Tape) Len() int { return len(t.nodes) }

func (t *Tape) record(val *tensor.Matrix, needsGrad bool, back func()) *Node {
	n := &Node{Val: val, tape: t, needsGrad: needsGrad, back: back}
	t.nodes = append(t.nodes, n)
	return n
}

// Const introduces a matrix that does not require gradients.
func (t *Tape) Const(m *tensor.Matrix) *Node {
	return t.record(m, false, nil)
}

// Watch introduces a parameter: val is the parameter storage and grad the
// persistent gradient buffer gradients accumulate into. Both must share a
// shape. Optimizers own zeroing grad between steps.
func (t *Tape) Watch(val, grad *tensor.Matrix) *Node {
	if val.Rows != grad.Rows || val.Cols != grad.Cols {
		panic("ad: Watch value/grad shape mismatch")
	}
	n := t.record(val, true, nil)
	n.Grad = grad
	return n
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
	root.ensureGrad().Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.Grad != nil && n.needsGrad {
			n.back()
		}
	}
}

func anyNeedsGrad(nodes ...*Node) bool {
	for _, n := range nodes {
		if n.needsGrad {
			return true
		}
	}
	return false
}

func sameShape(a, b *Node) {
	if a.Val.Rows != b.Val.Rows || a.Val.Cols != b.Val.Cols {
		panic(fmt.Sprintf("ad: shape mismatch %dx%d vs %dx%d", a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	sameShape(a, b)
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] + b.Val.Data[i]
	}
	out := t.record(val, anyNeedsGrad(a, b), nil)
	out.back = func() {
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
	}
	return out
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	sameShape(a, b)
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] - b.Val.Data[i]
	}
	out := t.record(val, anyNeedsGrad(a, b), nil)
	out.back = func() {
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] -= out.Grad.Data[i]
			}
		}
	}
	return out
}

// Mul returns the element-wise product a * b (same shape).
func (t *Tape) Mul(a, b *Node) *Node {
	sameShape(a, b)
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] * b.Val.Data[i]
	}
	out := t.record(val, anyNeedsGrad(a, b), nil)
	out.back = func() {
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * b.Val.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * a.Val.Data[i]
			}
		}
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
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	den := make([]float32, len(val.Data))
	for i := range val.Data {
		den[i] = guardDenom(b.Val.Data[i])
		val.Data[i] = a.Val.Data[i] / den[i]
	}
	out := t.record(val, anyNeedsGrad(a, b), nil)
	out.back = func() {
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] / den[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] -= out.Grad.Data[i] * val.Data[i] / den[i]
			}
		}
	}
	return out
}

// Scale returns alpha * a.
func (t *Tape) Scale(alpha float32, a *Node) *Node {
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	for i := range val.Data {
		val.Data[i] = alpha * a.Val.Data[i]
	}
	out := t.record(val, a.needsGrad, nil)
	out.back = func() {
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += alpha * out.Grad.Data[i]
			}
		}
	}
	return out
}

// MatMul returns a · b.
func (t *Tape) MatMul(a, b *Node) *Node {
	val := tensor.MatMul(a.Val, b.Val)
	out := t.record(val, anyNeedsGrad(a, b), nil)
	out.back = func() {
		if a.needsGrad {
			tensor.GemmAcc(a.ensureGrad(), out.Grad, b.Val, false, true)
		}
		if b.needsGrad {
			tensor.GemmAcc(b.ensureGrad(), a.Val, out.Grad, true, false)
		}
	}
	return out
}

// AddBias returns m + bias broadcast over rows; bias must be 1 x m.Cols.
func (t *Tape) AddBias(m, bias *Node) *Node {
	if bias.Rows() != 1 || bias.Cols() != m.Cols() {
		panic(fmt.Sprintf("ad: AddBias bias shape %dx%d for matrix %dx%d", bias.Rows(), bias.Cols(), m.Rows(), m.Cols()))
	}
	val := tensor.NewMatrix(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Val.Row(i)
		orow := val.Row(i)
		for j := range orow {
			orow[j] = row[j] + bias.Val.Data[j]
		}
	}
	out := t.record(val, anyNeedsGrad(m, bias), nil)
	out.back = func() {
		if m.needsGrad {
			g := m.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if bias.needsGrad {
			g := bias.ensureGrad()
			for i := 0; i < out.Rows(); i++ {
				row := out.Grad.Row(i)
				for j := range row {
					g.Data[j] += row[j]
				}
			}
		}
	}
	return out
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
	val := tensor.NewMatrix(rows, total)
	off := 0
	for _, n := range nodes {
		for i := 0; i < rows; i++ {
			copy(val.Row(i)[off:off+n.Cols()], n.Val.Row(i))
		}
		off += n.Cols()
	}
	out := t.record(val, anyNeedsGrad(nodes...), nil)
	out.back = func() {
		off := 0
		for _, n := range nodes {
			if n.needsGrad {
				g := n.ensureGrad()
				for i := 0; i < rows; i++ {
					grow := out.Grad.Row(i)[off : off+n.Cols()]
					dst := g.Row(i)
					for j := range dst {
						dst[j] += grow[j]
					}
				}
			}
			off += n.Cols()
		}
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
	val := tensor.NewMatrix(total, cols)
	off := 0
	for _, n := range nodes {
		copy(val.Data[off*cols:], n.Val.Data)
		off += n.Rows()
	}
	out := t.record(val, anyNeedsGrad(nodes...), nil)
	out.back = func() {
		off := 0
		for _, n := range nodes {
			if n.needsGrad {
				g := n.ensureGrad()
				src := out.Grad.Data[off*cols : (off+n.Rows())*cols]
				for i := range g.Data {
					g.Data[i] += src[i]
				}
			}
			off += n.Rows()
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to each row.
func (t *Tape) SoftmaxRows(m *Node) *Node {
	val := tensor.NewMatrix(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		tensor.Softmax(m.Val.Row(i), val.Row(i))
	}
	out := t.record(val, m.needsGrad, nil)
	out.back = func() {
		if !m.needsGrad {
			return
		}
		g := m.ensureGrad()
		for i := 0; i < m.Rows(); i++ {
			y := val.Row(i)
			dy := out.Grad.Row(i)
			var dot float64
			for j := range y {
				dot += float64(y[j]) * float64(dy[j])
			}
			dst := g.Row(i)
			for j := range y {
				dst[j] += y[j] * (dy[j] - float32(dot))
			}
		}
	}
	return out
}

func (t *Tape) unary(a *Node, f func(float32) float32, df func(x, y float32) float32) *Node {
	val := tensor.NewMatrix(a.Rows(), a.Cols())
	for i, x := range a.Val.Data {
		val.Data[i] = f(x)
	}
	out := t.record(val, a.needsGrad, nil)
	out.back = func() {
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.Grad.Data[i] * df(a.Val.Data[i], val.Data[i])
		}
	}
	return out
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	return t.unary(a, tensor.Sigmoid, func(_, y float32) float32 { return y * (1 - y) })
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.unary(a,
		func(x float32) float32 { return float32(math.Tanh(float64(x))) },
		func(_, y float32) float32 { return 1 - y*y })
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	return t.unary(a,
		func(x float32) float32 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(x, _ float32) float32 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// LeakyReLU applies x>0 ? x : alpha*x element-wise (the GAT/paper
// attention nonlinearity, conventionally alpha=0.2).
func (t *Tape) LeakyReLU(alpha float32, a *Node) *Node {
	return t.unary(a,
		func(x float32) float32 {
			if x > 0 {
				return x
			}
			return alpha * x
		},
		func(x, _ float32) float32 {
			if x > 0 {
				return 1
			}
			return alpha
		})
}

// Sqrt applies sqrt(max(x, 0) + eps) element-wise; the epsilon keeps the
// derivative finite at zero, which matters for norm computations.
func (t *Tape) Sqrt(a *Node) *Node {
	const eps = 1e-12
	return t.unary(a,
		func(x float32) float32 {
			if x < 0 {
				x = 0
			}
			return float32(math.Sqrt(float64(x) + eps))
		},
		func(_, y float32) float32 { return 1 / (2 * y) })
}

// sumAll reduces to a 1x1 scalar node holding the sum of all elements.
func (t *Tape) sumAll(a *Node) *Node {
	var s float64
	for _, v := range a.Val.Data {
		s += float64(v)
	}
	val := tensor.NewMatrix(1, 1)
	val.Data[0] = float32(s)
	out := t.record(val, a.needsGrad, nil)
	out.back = func() {
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		d := out.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += d
		}
	}
	return out
}

// MeanRows returns the 1 x Cols mean over rows (mean pooling).
func (t *Tape) MeanRows(a *Node) *Node {
	if a.Rows() == 0 {
		panic("ad: MeanRows of empty node")
	}
	val := tensor.NewMatrix(1, a.Cols())
	for i := 0; i < a.Rows(); i++ {
		row := a.Val.Row(i)
		for j, v := range row {
			val.Data[j] += v
		}
	}
	inv := 1 / float32(a.Rows())
	for j := range val.Data {
		val.Data[j] *= inv
	}
	out := t.record(val, a.needsGrad, nil)
	out.back = func() {
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Rows(); i++ {
			dst := g.Row(i)
			for j := range dst {
				dst[j] += out.Grad.Data[j] * inv
			}
		}
	}
	return out
}

// Dot returns the scalar inner product of two 1xN (or Nx1) nodes.
func (t *Tape) Dot(a, b *Node) *Node {
	return t.sumAll(t.Mul(a, b))
}

// norm returns the scalar Euclidean norm of a node's elements.
func (t *Tape) norm(a *Node) *Node {
	return t.Sqrt(t.sumAll(t.Mul(a, a)))
}

// CosineSim returns the scalar cosine similarity of two same-shape nodes,
// the twin-tower scoring function (score = cos(uq, i)) and the
// semantic-combination weight of eq. (10).
func (t *Tape) CosineSim(a, b *Node) *Node {
	sameShape(a, b)
	return t.div(t.Dot(a, b), t.Mul(t.norm(a), t.norm(b)))
}

// Custom introduces a node with a caller-provided value and backward
// closure, for operations with bespoke gradient handling (notably sparse
// embedding lookups in package nn). The closure receives the output node
// and must accumulate into the inputs it closed over.
func (t *Tape) Custom(val *tensor.Matrix, needsGrad bool, back func(out *Node)) *Node {
	out := t.record(val, needsGrad, nil)
	if back != nil {
		out.back = func() { back(out) }
	}
	return out
}

// BCEWithLogits returns the mean binary cross-entropy between logits (any
// shape) and targets (same element count, values in [0,1]), computed in
// the numerically stable log-sum-exp form. The gradient with respect to
// each logit is (sigmoid(x) - z) / n.
func (t *Tape) BCEWithLogits(logits *Node, targets []float32) *Node {
	n := len(logits.Val.Data)
	if n != len(targets) {
		panic(fmt.Sprintf("ad: BCEWithLogits %d logits vs %d targets", n, len(targets)))
	}
	if n == 0 {
		panic("ad: BCEWithLogits with no samples")
	}
	var loss float64
	for i, x64 := range logits.Val.Data {
		x := float64(x64)
		z := float64(targets[i])
		// max(x,0) - x*z + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*z + math.Log1p(math.Exp(-math.Abs(x)))
	}
	val := tensor.NewMatrix(1, 1)
	val.Data[0] = float32(loss / float64(n))
	out := t.record(val, logits.needsGrad, nil)
	out.back = func() {
		if !logits.needsGrad {
			return
		}
		g := logits.ensureGrad()
		scale := out.Grad.Data[0] / float32(n)
		for i, x := range logits.Val.Data {
			g.Data[i] += scale * (tensor.Sigmoid(x) - targets[i])
		}
	}
	return out
}

// FocalBCEWithLogits returns the mean focal binary cross-entropy
// (Lin et al.) with focusing parameter gamma, the loss the paper trains
// Zoomer with ("focal cross-entropy loss ... focal weight to 2"):
//
//	FL = -z·(1-p)^γ·log p - (1-z)·p^γ·log(1-p),  p = sigmoid(x)
//
// Gradients are computed analytically in float64 for stability.
func (t *Tape) FocalBCEWithLogits(logits *Node, targets []float32, gamma float64) *Node {
	n := len(logits.Val.Data)
	if n != len(targets) {
		panic(fmt.Sprintf("ad: FocalBCEWithLogits %d logits vs %d targets", n, len(targets)))
	}
	if n == 0 {
		panic("ad: FocalBCEWithLogits with no samples")
	}
	const eps = 1e-9
	var loss float64
	grads := make([]float64, n)
	for i, x64 := range logits.Val.Data {
		x := float64(x64)
		z := float64(targets[i])
		p := 1 / (1 + math.Exp(-x))
		p = math.Min(math.Max(p, eps), 1-eps)
		q := 1 - p
		logP, logQ := math.Log(p), math.Log(q)
		loss += -z*math.Pow(q, gamma)*logP - (1-z)*math.Pow(p, gamma)*logQ
		// d/dp of the positive term: -z [ -γ(1-p)^{γ-1} log p + (1-p)^γ / p ]
		dpos := -z * (-gamma*math.Pow(q, gamma-1)*logP + math.Pow(q, gamma)/p)
		// d/dp of the negative term: -(1-z) [ γ p^{γ-1} log(1-p) - p^γ/(1-p) ]
		dneg := -(1 - z) * (gamma*math.Pow(p, gamma-1)*logQ - math.Pow(p, gamma)/q)
		grads[i] = (dpos + dneg) * p * q // chain through dp/dx = p(1-p)
	}
	val := tensor.NewMatrix(1, 1)
	val.Data[0] = float32(loss / float64(n))
	out := t.record(val, logits.needsGrad, nil)
	out.back = func() {
		if !logits.needsGrad {
			return
		}
		g := logits.ensureGrad()
		scale := float64(out.Grad.Data[0]) / float64(n)
		for i := range grads {
			g.Data[i] += float32(scale * grads[i])
		}
	}
	return out
}

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Node) *Node {
	val := tensor.Transpose(a.Val)
	out := t.record(val, a.needsGrad, nil)
	out.back = func() {
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < out.Grad.Rows; i++ {
			for j := 0; j < out.Grad.Cols; j++ {
				g.Data[j*g.Cols+i] += out.Grad.Data[i*out.Grad.Cols+j]
			}
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
	val := tensor.NewMatrix(m.Rows(), m.Cols())
	for i, v := range m.Val.Data {
		val.Data[i] = s * v
	}
	out := t.record(val, anyNeedsGrad(scalar, m), nil)
	out.back = func() {
		if m.needsGrad {
			g := m.ensureGrad()
			for i := range g.Data {
				g.Data[i] += s * out.Grad.Data[i]
			}
		}
		if scalar.needsGrad {
			var acc float64
			for i, v := range m.Val.Data {
				acc += float64(v) * float64(out.Grad.Data[i])
			}
			scalar.ensureGrad().Data[0] += float32(acc)
		}
	}
	return out
}
