// Package nn provides the neural-network building blocks used by Zoomer
// and every baseline: dense parameters, linear/MLP layers, sparse
// embedding tables, and Adam optimizers with sparse updates.
//
// It mirrors the split in the paper's XDL training stack: dense model
// parameters (attention vectors, projection matrices) are small and
// updated densely; embedding tables are huge and updated sparsely — only
// the rows touched by a minibatch carry gradients, and optimizer state for
// a row is allocated the first time that row is updated.
package nn

import (
	"fmt"
	"math"

	"zoomer/internal/ad"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Param is a dense trainable parameter with a persistent gradient buffer.
type Param struct {
	Name string
	Val  *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam returns a zero-initialized parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Val:  tensor.NewMatrix(rows, cols),
		Grad: tensor.NewMatrix(rows, cols),
	}
}

// XavierInit fills p with Glorot-uniform values scaled for its shape.
func (p *Param) XavierInit(r *rng.RNG) *Param {
	limit := float32(math.Sqrt(6.0 / float64(p.Val.Rows+p.Val.Cols)))
	for i := range p.Val.Data {
		p.Val.Data[i] = (r.Float32()*2 - 1) * limit
	}
	return p
}

// Node enrolls the parameter in a tape so gradients accumulate into
// p.Grad during Backward.
func (p *Param) Node(t *ad.Tape) *ad.Node { return t.Watch(p.Val, p.Grad) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B *Param
}

// NewLinear returns a Xavier-initialized linear layer mapping in -> out.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	return &Linear{
		W: NewParam(name+".W", in, out).XavierInit(r),
		B: NewParam(name+".b", 1, out),
	}
}

// Forward applies the layer to a batch (rows are samples).
func (l *Linear) Forward(t *ad.Tape, x *ad.Node) *ad.Node {
	return t.AddBias(t.MatMul(x, l.W.Node(t)), l.B.Node(t))
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Activation selects the nonlinearity of an MLP layer.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
)

func applyAct(t *ad.Tape, a Activation, x *ad.Node) *ad.Node {
	switch a {
	case ActNone:
		return x
	case ActReLU:
		return t.ReLU(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// MLP is a stack of linear layers with a shared hidden activation and an
// optional output activation.
type MLP struct {
	Layers []*Linear
	Hidden Activation
	Output Activation
}

// NewMLP builds an MLP over the given layer sizes, e.g. sizes = [128, 64,
// 1] yields two linear layers. Hidden layers use hidden; the final layer
// uses output.
func NewMLP(name string, sizes []int, hidden, output Activation, r *rng.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least an input and output size")
	}
	m := &MLP{Hidden: hidden, Output: output}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], r))
	}
	return m
}

// Forward applies the MLP to a batch.
func (m *MLP) Forward(t *ad.Tape, x *ad.Node) *ad.Node {
	for i, l := range m.Layers {
		x = l.Forward(t, x)
		if i+1 < len(m.Layers) {
			x = applyAct(t, m.Hidden, x)
		} else {
			x = applyAct(t, m.Output, x)
		}
	}
	return x
}

// Params returns all trainable parameters of the MLP.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// EmbeddingTable maps integer ids to dense rows with sparse gradient
// accumulation: only rows looked up during a step carry gradients, and
// Adam moment state is allocated per-row on first touch — the structure of
// the paper's parameter-server embedding storage.
//
// Pending gradients and Adam moments live in flat slabs, found through
// dense row→slot indexes (one int32 per vocabulary row).
type EmbeddingTable struct {
	Name string
	Dim  int
	rows *tensor.Matrix

	// Pending sparse gradients: row id's is slot gradAt[id]-1 of grads
	// (0: none), touched lists those rows in slot order. ZeroGrad keeps
	// grads' memory for the next step.
	gradAt  []int32
	touched []int32
	grads   []float32
	// Per-row Adam moments, allocated on a row's first update: row id's
	// are slot momentAt[id]-1 of adamM and adamV (0: none yet).
	momentAt     []int32
	adamM, adamV []float32
	adamT        int
}

// NewEmbeddingTable creates a table of vocab rows of width dim,
// initialized uniformly in [-1/sqrt(dim), 1/sqrt(dim)].
func NewEmbeddingTable(name string, vocab, dim int, r *rng.RNG) *EmbeddingTable {
	if vocab <= 0 || dim <= 0 {
		panic("nn: embedding table needs positive vocab and dim")
	}
	e := &EmbeddingTable{
		Name:   name,
		Dim:    dim,
		rows:   tensor.NewMatrix(vocab, dim),
		gradAt: make([]int32, vocab),
	}
	limit := float32(1 / math.Sqrt(float64(dim)))
	for i := range e.rows.Data {
		e.rows.Data[i] = (r.Float32()*2 - 1) * limit
	}
	return e
}

// Vocab returns the number of rows.
func (e *EmbeddingTable) Vocab() int { return e.rows.Rows }

// Row returns a read-only view of row id (no gradient tracking); used for
// inference-time embedding export.
func (e *EmbeddingTable) Row(id int32) tensor.Vec { return e.rows.Row(int(id)) }

// Slot names row ids[0] or, with mean, the mean of rows ids as one slot
// of ad.Tape.GatherSlots. Gradients scatter back into the table's
// pending sparse gradients.
func (e *EmbeddingTable) Slot(ids []int32, mean bool) ad.Slot {
	return ad.Slot{Table: e.rows, IDs: ids, Sink: e, Mean: mean}
}

// slot returns the Dim-wide row k of a slot-indexed slab.
func (e *EmbeddingTable) slot(slab []float32, k int32) []float32 {
	return slab[int(k)*e.Dim : int(k+1)*e.Dim]
}

// AddRowGrad implements ad.GradSink: it accumulates grad into row id's
// pending sparse gradient.
func (e *EmbeddingTable) AddRowGrad(id int32, grad []float32) {
	k := e.gradAt[id]
	if k == 0 {
		e.touched = append(e.touched, id)
		e.grads = append(e.grads, make([]float32, e.Dim)...)
		k = int32(len(e.touched))
		e.gradAt[id] = k
	}
	g := e.slot(e.grads, k-1)
	for j := range g {
		g[j] += grad[j]
	}
}

// ZeroGrad discards pending sparse gradients, keeping their memory for
// reuse.
func (e *EmbeddingTable) ZeroGrad() {
	for _, id := range e.touched {
		e.gradAt[id] = 0
	}
	e.touched = e.touched[:0]
	e.grads = e.grads[:0]
}

// StepAdam applies pending sparse gradients with Adam (lazy per-row
// moments, table-global bias correction) and clears them. Each row's
// update reads only that row's gradient and moments, so the order the
// rows are visited in does not change a bit.
func (e *EmbeddingTable) StepAdam(lr float32) {
	if e.momentAt == nil {
		e.momentAt = make([]int32, e.Vocab())
	}
	e.adamT++
	step := newAdamStep(lr, e.adamT)
	for i, id := range e.touched {
		k := e.momentAt[id]
		if k == 0 {
			e.adamM = append(e.adamM, make([]float32, e.Dim)...)
			e.adamV = append(e.adamV, make([]float32, e.Dim)...)
			k = int32(len(e.adamM) / e.Dim)
			e.momentAt[id] = k
		}
		step.update(e.rows.Row(int(id)), e.slot(e.grads, int32(i)), e.slot(e.adamM, k-1), e.slot(e.adamV, k-1))
	}
	e.ZeroGrad()
}

// Adam's moment decay rates and denominator epsilon. They are typed:
// an untyped 1-beta1 would fold to float64(0.1), not 1-float64(0.9).
const (
	beta1 float64 = 0.9
	beta2 float64 = 0.999
	eps   float64 = 1e-8
)

// adamStep is the one Adam update rule, the dense optimizer's and the
// tables' alike, at one step: its learning rate and bias corrections.
type adamStep struct{ lr, bc1, bc2 float64 }

// newAdamStep returns step t's (from 1) rule at learning rate lr.
func newAdamStep(lr float32, t int) adamStep {
	return adamStep{lr: float64(lr), bc1: 1 - math.Pow(beta1, float64(t)), bc2: 1 - math.Pow(beta2, float64(t))}
}

// update moves the weights w against gradient g, updating the first and
// second moments m and v in place.
func (s adamStep) update(w, g, m, v []float32) {
	for j := range w {
		gj := float64(g[j])
		mj := beta1*float64(m[j]) + (1-beta1)*gj
		vj := beta2*float64(v[j]) + (1-beta2)*gj*gj
		m[j] = float32(mj)
		v[j] = float32(vj)
		w[j] -= float32(s.lr * (mj / s.bc1) / (math.Sqrt(vj/s.bc2) + eps))
	}
}

// Adam is the Adam optimizer for dense parameters, with state keyed by
// parameter identity so one optimizer can drive a whole model.
type Adam struct {
	LR float32

	t     int
	state map[*Param]*adamState
}

type adamState struct{ m, v []float32 }

// NewAdam returns an Adam optimizer with learning rate lr.
func NewAdam(lr float32) *Adam { return &Adam{LR: lr} }

// Step applies and clears gradients for the given dense parameters.
func (a *Adam) Step(params ...*Param) {
	if a.state == nil {
		a.state = make(map[*Param]*adamState)
	}
	a.t++
	step := newAdamStep(a.LR, a.t)
	for _, p := range params {
		st, ok := a.state[p]
		if !ok {
			st = &adamState{make([]float32, len(p.Val.Data)), make([]float32, len(p.Val.Data))}
			a.state[p] = st
		}
		step.update(p.Val.Data, p.Grad.Data, st.m, st.v)
		p.ZeroGrad()
	}
}
