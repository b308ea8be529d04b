package nn

import (
	"math"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// sum reduces n to the scalar Σ n, whose gradient is one everywhere.
func sum(tp *ad.Tape, n *ad.Node) *ad.Node {
	ones := func(rows, cols int) *ad.Node {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 1
		}
		return tp.Const(m)
	}
	return tp.MatMul(tp.MatMul(ones(1, n.Rows()), n), ones(n.Cols(), 1))
}

func TestParamNodeAccumulatesGrad(t *testing.T) {
	r := rng.New(1)
	p := NewParam("w", 2, 2).XavierInit(r)
	tp := ad.NewTape()
	loss := sum(tp, p.Node(tp))
	tp.Backward(loss)
	for _, g := range p.Grad.Data {
		if g != 1 {
			t.Fatalf("grad = %v, want all ones", p.Grad.Data)
		}
	}
	p.ZeroGrad()
	for _, g := range p.Grad.Data {
		if g != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	r := rng.New(2)
	p := NewParam("w", 100, 50).XavierInit(r)
	limit := math.Sqrt(6.0 / 150.0)
	var nonzero int
	for _, v := range p.Val.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("value %v outside Xavier bound %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(p.Val.Data)/2 {
		t.Fatal("Xavier init left most weights zero")
	}
}

func TestLinearForwardShape(t *testing.T) {
	r := rng.New(3)
	l := NewLinear("fc", 4, 3, r)
	tp := ad.NewTape()
	x := tp.Const(tensor.NewMatrix(5, 4))
	y := l.Forward(tp, x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("Linear output %dx%d, want 5x3", y.Rows(), y.Cols())
	}
	if len(l.Params()) != 2 {
		t.Fatal("Linear should expose W and b")
	}
}

// A linear layer trained with Adam must fit a linear teacher.
func TestLinearLearnsTeacher(t *testing.T) {
	r := rng.New(4)
	teacherW := []float32{1.5, -2, 0.5}
	l := NewLinear("fc", 3, 1, r)
	opt := NewAdam(0.05)
	var lastLoss float32
	for step := 0; step < 300; step++ {
		x := tensor.NewMatrix(16, 3)
		targets := make([]float32, 16)
		for i := 0; i < 16; i++ {
			row := x.Row(i)
			var dot float32
			for j := range row {
				row[j] = r.Float32()*2 - 1
				dot += row[j] * teacherW[j]
			}
			if dot > 0 {
				targets[i] = 1
			}
		}
		tp := ad.NewTape()
		logits := l.Forward(tp, tp.Const(x))
		loss := tp.BCEWithLogits(logits, targets)
		tp.Backward(loss)
		opt.Step(l.Params()...)
		lastLoss = loss.Scalar()
	}
	if lastLoss > 0.25 {
		t.Fatalf("linear model failed to fit teacher: loss %v", lastLoss)
	}
}

func TestMLPForward(t *testing.T) {
	r := rng.New(5)
	m := NewMLP("mlp", []int{8, 16, 4, 1}, ActReLU, ActNone, r)
	if len(m.Layers) != 3 {
		t.Fatalf("MLP has %d layers, want 3", len(m.Layers))
	}
	if len(m.Params()) != 6 {
		t.Fatalf("MLP has %d params, want 6", len(m.Params()))
	}
	tp := ad.NewTape()
	x := tp.Const(tensor.NewMatrix(2, 8))
	y := m.Forward(tp, x)
	if y.Rows() != 2 || y.Cols() != 1 {
		t.Fatalf("MLP output %dx%d", y.Rows(), y.Cols())
	}
}

// An MLP must solve XOR, which a linear model cannot: checks that
// gradients flow correctly through hidden layers.
func TestMLPLearnsXOR(t *testing.T) {
	r := rng.New(6)
	m := NewMLP("xor", []int{2, 8, 1}, ActReLU, ActNone, r)
	opt := NewAdam(0.05)
	x := tensor.NewMatrix(4, 2)
	copy(x.Data, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	targets := []float32{0, 1, 1, 0}
	var loss float32
	for step := 0; step < 1500; step++ {
		tp := ad.NewTape()
		logits := m.Forward(tp, tp.Const(x))
		l := tp.BCEWithLogits(logits, targets)
		tp.Backward(l)
		opt.Step(m.Params()...)
		loss = l.Scalar()
	}
	if loss > 0.1 {
		t.Fatalf("MLP failed to learn XOR: loss %v", loss)
	}
}

// lookup gathers rows ids of e, one slot each.
func lookup(tp *ad.Tape, e *EmbeddingTable, ids ...int32) *ad.Node {
	slots := make([]ad.Slot, len(ids))
	for i := range ids {
		slots[i] = e.Slot(ids[i:i+1], false)
	}
	return tp.GatherSlots(slots...)
}

// pendingGrad returns row id's pending gradient, nil when it has none.
func pendingGrad(e *EmbeddingTable, id int32) []float32 {
	if k := e.gradAt[id]; k > 0 {
		return e.slot(e.grads, k-1)
	}
	return nil
}

func TestEmbeddingLookupValues(t *testing.T) {
	r := rng.New(7)
	e := NewEmbeddingTable("emb", 10, 4, r)
	tp := ad.NewTape()
	n := lookup(tp, e, 3, 7, 3)
	if n.Rows() != 3 || n.Cols() != 4 {
		t.Fatalf("lookup shape %dx%d", n.Rows(), n.Cols())
	}
	for j := 0; j < 4; j++ {
		if n.Val.Row(0)[j] != e.Row(3)[j] || n.Val.Row(2)[j] != e.Row(3)[j] {
			t.Fatal("lookup row mismatch")
		}
	}
}

func TestEmbeddingSparseGradAccumulation(t *testing.T) {
	r := rng.New(8)
	e := NewEmbeddingTable("emb", 10, 2, r)
	tp := ad.NewTape()
	// id 3 appears twice: its gradient must be doubled.
	n := lookup(tp, e, 3, 5, 3)
	loss := sum(tp, n)
	tp.Backward(loss)
	if len(e.touched) != 2 {
		t.Fatalf("touched rows = %d, want 2", len(e.touched))
	}
	if g := pendingGrad(e, 3); g[0] != 2 || g[1] != 2 {
		t.Fatalf("grad for repeated id = %v, want [2 2]", g)
	}
	if g := pendingGrad(e, 5); g[0] != 1 || g[1] != 1 {
		t.Fatalf("grad for single id = %v, want [1 1]", g)
	}
	// Untouched rows must not appear.
	if pendingGrad(e, 0) != nil {
		t.Fatal("untouched row has gradient")
	}
}

func TestEmbeddingStepAdamMovesAgainstGradient(t *testing.T) {
	r := rng.New(10)
	e := NewEmbeddingTable("emb", 4, 3, r)
	before := tensor.Copy(e.Row(2))
	tp := ad.NewTape()
	tp.Backward(sum(tp, lookup(tp, e, 2)))
	e.StepAdam(0.01)
	after := e.Row(2)
	for j := range after {
		if after[j] >= before[j] {
			t.Fatalf("Adam did not decrease value against positive grad: %v -> %v", before[j], after[j])
		}
	}
}

// A sparse Adam step moves only the rows that carry gradients and clears
// the pending gradients. With bias correction, the first step on a unit
// gradient moves each coordinate by exactly lr/(1+eps).
func TestEmbeddingStepAdamTouchesOnlyGradientRows(t *testing.T) {
	r := rng.New(9)
	e := NewEmbeddingTable("emb", 4, 2, r)
	before := tensor.Copy(e.Row(1))
	otherBefore := tensor.Copy(e.Row(0))
	tp := ad.NewTape()
	tp.Backward(sum(tp, lookup(tp, e, 1)))
	e.StepAdam(0.1)
	after := e.Row(1)
	for j := range after {
		want := before[j] - 0.1
		if math.Abs(float64(after[j]-want)) > 1e-6 {
			t.Fatalf("Adam row update wrong: %v -> %v", before, after)
		}
	}
	for j := range otherBefore {
		if e.Row(0)[j] != otherBefore[j] {
			t.Fatal("Adam touched a row without a gradient")
		}
	}
	if len(e.touched) != 0 {
		t.Fatal("StepAdam did not clear gradients")
	}
}

func TestEmbeddingTrainsToSeparateClasses(t *testing.T) {
	// Two ids with opposite labels: after training, their first weight
	// components must separate under a fixed probe vector.
	r := rng.New(11)
	e := NewEmbeddingTable("emb", 2, 4, r)
	probe := tensor.NewMatrix(4, 1)
	for i := range probe.Data {
		probe.Data[i] = 1
	}
	for step := 0; step < 200; step++ {
		tp := ad.NewTape()
		emb := lookup(tp, e, 0, 1)
		logits := tp.MatMul(emb, tp.Const(probe))
		loss := tp.BCEWithLogits(logits, []float32{1, 0})
		tp.Backward(loss)
		e.StepAdam(0.05)
	}
	score := func(id int32) float32 {
		var s float32
		for _, v := range e.Row(id) {
			s += v
		}
		return s
	}
	if !(score(0) > 1 && score(1) < -1) {
		t.Fatalf("embeddings did not separate: pos=%v neg=%v", score(0), score(1))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w - 3)^2 via its gradient 2(w-3).
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Val.Data[0] - 3)
		opt.Step(p)
	}
	if math.Abs(float64(p.Val.Data[0]-3)) > 0.05 {
		t.Fatalf("Adam did not converge: w = %v, want 3", p.Val.Data[0])
	}
}

func TestZeroGradTable(t *testing.T) {
	r := rng.New(13)
	e := NewEmbeddingTable("emb", 3, 2, r)
	tp := ad.NewTape()
	tp.Backward(sum(tp, lookup(tp, e, 0)))
	if len(e.touched) == 0 {
		t.Fatal("no touched rows after backward")
	}
	e.ZeroGrad()
	if len(e.touched) != 0 {
		t.Fatal("ZeroGrad left rows")
	}
}

func BenchmarkEmbeddingLookupBatch(b *testing.B) {
	r := rng.New(1)
	e := NewEmbeddingTable("emb", 100000, 64, r)
	ids := make([]int32, 256)
	for i := range ids {
		ids[i] = int32(r.Intn(100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := ad.NewTape()
		n := lookup(tp, e, ids...)
		tp.Backward(sum(tp, n))
		e.ZeroGrad()
	}
}
