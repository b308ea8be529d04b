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
type EmbeddingTable struct {
	Name string
	Dim  int
	rows *tensor.Matrix

	grads map[int32][]float32
	// Per-row Adam moments, lazily allocated.
	adamM, adamV map[int32][]float32
	adamT        int
}

// NewEmbeddingTable creates a table of vocab rows of width dim,
// initialized uniformly in [-1/sqrt(dim), 1/sqrt(dim)].
func NewEmbeddingTable(name string, vocab, dim int, r *rng.RNG) *EmbeddingTable {
	if vocab <= 0 || dim <= 0 {
		panic("nn: embedding table needs positive vocab and dim")
	}
	e := &EmbeddingTable{
		Name:  name,
		Dim:   dim,
		rows:  tensor.NewMatrix(vocab, dim),
		grads: make(map[int32][]float32),
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

// Lookup gathers the rows for ids into a len(ids) x Dim node. Gradients
// scatter back into the table's sparse gradient map.
func (e *EmbeddingTable) Lookup(t *ad.Tape, ids []int32) *ad.Node {
	val := tensor.NewMatrix(len(ids), e.Dim)
	for i, id := range ids {
		copy(val.Row(i), e.rows.Row(int(id)))
	}
	idsCopy := make([]int32, len(ids))
	copy(idsCopy, ids)
	return t.Custom(val, true, func(out *ad.Node) {
		for i, id := range idsCopy {
			g, ok := e.grads[id]
			if !ok {
				g = make([]float32, e.Dim)
				e.grads[id] = g
			}
			src := out.Grad.Row(i)
			for j := range g {
				g[j] += src[j]
			}
		}
	})
}

// LookupOne gathers a single row as a 1 x Dim node.
func (e *EmbeddingTable) LookupOne(t *ad.Tape, id int32) *ad.Node {
	return e.Lookup(t, []int32{id})
}

// ZeroGrad discards pending sparse gradients.
func (e *EmbeddingTable) ZeroGrad() { clear(e.grads) }

// StepAdam applies pending sparse gradients with Adam (lazy per-row
// moments, table-global bias correction) and clears them.
func (e *EmbeddingTable) StepAdam(lr float32, beta1, beta2, eps float64) {
	if e.adamM == nil {
		e.adamM = make(map[int32][]float32)
		e.adamV = make(map[int32][]float32)
	}
	e.adamT++
	bc1 := 1 - math.Pow(beta1, float64(e.adamT))
	bc2 := 1 - math.Pow(beta2, float64(e.adamT))
	for id, g := range e.grads {
		m, ok := e.adamM[id]
		if !ok {
			m = make([]float32, e.Dim)
			e.adamM[id] = m
			v := make([]float32, e.Dim)
			e.adamV[id] = v
		}
		v := e.adamV[id]
		row := e.rows.Row(int(id))
		for j := range row {
			gj := float64(g[j])
			mj := beta1*float64(m[j]) + (1-beta1)*gj
			vj := beta2*float64(v[j]) + (1-beta2)*gj*gj
			m[j] = float32(mj)
			v[j] = float32(vj)
			row[j] -= float32(float64(lr) * (mj / bc1) / (math.Sqrt(vj/bc2) + eps))
		}
	}
	clear(e.grads)
}

// Adam is the Adam optimizer for dense parameters, with state keyed by
// parameter identity so one optimizer can drive a whole model.
type Adam struct {
	LR           float32
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float32

	t     int
	state map[*Param]*adamState
}

type adamState struct{ m, v *tensor.Matrix }

// NewAdam returns an Adam optimizer with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies and clears gradients for the given dense parameters.
func (a *Adam) Step(params ...*Param) {
	if a.state == nil {
		a.state = make(map[*Param]*adamState)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		st, ok := a.state[p]
		if !ok {
			st = &adamState{
				m: tensor.NewMatrix(p.Val.Rows, p.Val.Cols),
				v: tensor.NewMatrix(p.Val.Rows, p.Val.Cols),
			}
			a.state[p] = st
		}
		for i := range p.Val.Data {
			g := float64(p.Grad.Data[i] + a.WeightDecay*p.Val.Data[i])
			m := a.Beta1*float64(st.m.Data[i]) + (1-a.Beta1)*g
			v := a.Beta2*float64(st.v.Data[i]) + (1-a.Beta2)*g*g
			st.m.Data[i] = float32(m)
			st.v.Data[i] = float32(v)
			p.Val.Data[i] -= float32(float64(a.LR) * (m / bc1) / (math.Sqrt(v/bc2) + a.Eps))
			p.Grad.Data[i] = 0
		}
	}
}
