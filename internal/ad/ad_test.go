package ad

import (
	"math"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// checkGrad verifies the analytic gradient of loss(param) against central
// finite differences for a parameter of the given shape.
func checkGrad(t *testing.T, name string, rows, cols int, seed uint64,
	loss func(tp *Tape, p *Node) *Node) {
	t.Helper()
	r := rng.New(seed)
	param := tensor.NewMatrix(rows, cols)
	for i := range param.Data {
		param.Data[i] = r.Float32()*2 - 1
	}
	grad := tensor.NewMatrix(rows, cols)

	tp := NewTape()
	out := loss(tp, tp.Watch(param, grad))
	tp.Backward(out)

	eval := func() float64 {
		tp := NewTape()
		g := tensor.NewMatrix(rows, cols)
		return float64(loss(tp, tp.Watch(param, g)).Scalar())
	}

	const h = 1e-3
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + h
		fp := eval()
		param.Data[i] = orig - h
		fm := eval()
		param.Data[i] = orig
		want := (fp - fm) / (2 * h)
		got := float64(grad.Data[i])
		tol := 2e-2 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("%s: grad[%d] = %v, finite diff = %v", name, i, got, want)
		}
	}
}

func constMat(tp *Tape, r *rng.RNG, rows, cols int) *Node {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float32()*2 - 1
	}
	return tp.Const(m)
}

func TestGradAdd(t *testing.T) {
	checkGrad(t, "add", 2, 3, 1, func(tp *Tape, p *Node) *Node {
		c := constMat(tp, rng.New(2), 2, 3)
		return tp.sumAll(tp.Add(p, c))
	})
}

func TestGradSub(t *testing.T) {
	checkGrad(t, "sub", 2, 3, 3, func(tp *Tape, p *Node) *Node {
		c := constMat(tp, rng.New(4), 2, 3)
		return tp.sumAll(tp.Sub(c, p))
	})
}

func TestGradMul(t *testing.T) {
	checkGrad(t, "mul", 2, 3, 5, func(tp *Tape, p *Node) *Node {
		c := constMat(tp, rng.New(6), 2, 3)
		return tp.sumAll(tp.Mul(p, c))
	})
	// Self-product exercises gradient accumulation through both inputs.
	checkGrad(t, "mul-self", 2, 2, 7, func(tp *Tape, p *Node) *Node {
		return tp.sumAll(tp.Mul(p, p))
	})
}

func TestGradDiv(t *testing.T) {
	checkGrad(t, "div-num", 1, 4, 8, func(tp *Tape, p *Node) *Node {
		den := tensor.NewMatrix(1, 4)
		for i := range den.Data {
			den.Data[i] = 1.5 + float32(i)*0.25
		}
		return tp.sumAll(tp.div(p, tp.Const(den)))
	})
	checkGrad(t, "div-den", 1, 4, 9, func(tp *Tape, p *Node) *Node {
		// Shift the denominator away from zero to keep finite diffs valid.
		shifted := tp.Add(p, tp.Const(&tensor.Matrix{Rows: 1, Cols: 4, Data: []float32{3, 3, 3, 3}}))
		num := constMat(tp, rng.New(10), 1, 4)
		return tp.sumAll(tp.div(num, shifted))
	})
}

func TestGradScale(t *testing.T) {
	checkGrad(t, "scale", 3, 2, 11, func(tp *Tape, p *Node) *Node {
		return tp.sumAll(tp.Scale(-2.5, p))
	})
}

func TestGradMatMul(t *testing.T) {
	checkGrad(t, "matmul-left", 3, 4, 12, func(tp *Tape, p *Node) *Node {
		b := constMat(tp, rng.New(13), 4, 2)
		return tp.sumAll(tp.MatMul(p, b))
	})
	checkGrad(t, "matmul-right", 4, 2, 14, func(tp *Tape, p *Node) *Node {
		a := constMat(tp, rng.New(15), 3, 4)
		return tp.sumAll(tp.MatMul(a, p))
	})
}

func TestGradAddBias(t *testing.T) {
	checkGrad(t, "bias", 1, 3, 16, func(tp *Tape, p *Node) *Node {
		m := constMat(tp, rng.New(17), 4, 3)
		return tp.sumAll(tp.AddBias(m, p))
	})
	checkGrad(t, "bias-matrix", 4, 3, 18, func(tp *Tape, p *Node) *Node {
		b := constMat(tp, rng.New(19), 1, 3)
		return tp.sumAll(tp.AddBias(p, b))
	})
}

func TestGradConcat(t *testing.T) {
	checkGrad(t, "concat-cols", 2, 3, 20, func(tp *Tape, p *Node) *Node {
		c := constMat(tp, rng.New(21), 2, 2)
		// Weight the concat so each side has distinct gradient structure.
		cat := tp.ConcatCols(p, c, p)
		w := constMat(tp, rng.New(22), 2, 8)
		return tp.sumAll(tp.Mul(cat, w))
	})
	checkGrad(t, "concat-rows", 2, 3, 23, func(tp *Tape, p *Node) *Node {
		c := constMat(tp, rng.New(24), 1, 3)
		cat := tp.ConcatRows(c, p)
		w := constMat(tp, rng.New(25), 3, 3)
		return tp.sumAll(tp.Mul(cat, w))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	checkGrad(t, "softmax", 2, 4, 28, func(tp *Tape, p *Node) *Node {
		sm := tp.SoftmaxRows(p)
		w := constMat(tp, rng.New(29), 2, 4)
		return tp.sumAll(tp.Mul(sm, w))
	})
}

func TestGradActivations(t *testing.T) {
	checkGrad(t, "sigmoid", 2, 3, 30, func(tp *Tape, p *Node) *Node {
		return tp.sumAll(tp.Sigmoid(p))
	})
	checkGrad(t, "tanh", 2, 3, 31, func(tp *Tape, p *Node) *Node {
		return tp.sumAll(tp.Tanh(p))
	})
	// ReLU/LeakyReLU: shift inputs off zero to avoid the kink.
	checkGrad(t, "relu", 2, 3, 32, func(tp *Tape, p *Node) *Node {
		shift := tensor.NewMatrix(2, 3)
		for i := range shift.Data {
			shift.Data[i] = 2.5
		}
		return tp.sumAll(tp.ReLU(tp.Add(p, tp.Const(shift))))
	})
	checkGrad(t, "leakyrelu", 2, 3, 33, func(tp *Tape, p *Node) *Node {
		shift := tensor.NewMatrix(2, 3)
		for i := range shift.Data {
			shift.Data[i] = -2.5
		}
		return tp.sumAll(tp.LeakyReLU(0.2, tp.Add(p, tp.Const(shift))))
	})
}

func TestGradSqrtNormCosine(t *testing.T) {
	checkGrad(t, "sqrt", 1, 3, 34, func(tp *Tape, p *Node) *Node {
		// Keep arguments positive.
		sq := tp.Mul(p, p)
		one := tensor.NewMatrix(1, 3)
		for i := range one.Data {
			one.Data[i] = 1
		}
		return tp.sumAll(tp.sqrt(tp.Add(sq, tp.Const(one))))
	})
	checkGrad(t, "norm", 1, 4, 35, func(tp *Tape, p *Node) *Node {
		return tp.norm(p)
	})
	checkGrad(t, "cosine", 1, 4, 36, func(tp *Tape, p *Node) *Node {
		b := constMat(tp, rng.New(37), 1, 4)
		return tp.CosineSim(p, b)
	})
}

func TestGradReductions(t *testing.T) {
	checkGrad(t, "meanrows", 3, 3, 39, func(tp *Tape, p *Node) *Node {
		m := tp.MeanRows(p)
		w := constMat(tp, rng.New(40), 1, 3)
		return tp.sumAll(tp.Mul(m, w))
	})
	checkGrad(t, "dot", 1, 5, 41, func(tp *Tape, p *Node) *Node {
		b := constMat(tp, rng.New(42), 1, 5)
		return tp.dot(p, b)
	})
}

func TestGradBCE(t *testing.T) {
	targets := []float32{1, 0, 1, 0, 1, 1}
	checkGrad(t, "bce", 1, 6, 43, func(tp *Tape, p *Node) *Node {
		return tp.BCEWithLogits(p, targets)
	})
}

func TestGradFocalBCE(t *testing.T) {
	targets := []float32{1, 0, 1, 0, 1, 1}
	for _, gamma := range []float64{0, 1, 2} {
		checkGrad(t, "focal", 1, 6, 44, func(tp *Tape, p *Node) *Node {
			return tp.FocalBCEWithLogits(p, targets, gamma)
		})
	}
}

// Focal loss with gamma=0 must equal plain BCE.
func TestFocalGammaZeroMatchesBCE(t *testing.T) {
	r := rng.New(50)
	logits := tensor.NewMatrix(1, 8)
	targets := make([]float32, 8)
	for i := range logits.Data {
		logits.Data[i] = r.Float32()*6 - 3
		if r.Float64() < 0.5 {
			targets[i] = 1
		}
	}
	tp := NewTape()
	l := tp.Const(logits)
	bce := tp.BCEWithLogits(l, targets).Scalar()
	focal := tp.FocalBCEWithLogits(l, targets, 0).Scalar()
	if math.Abs(float64(bce-focal)) > 1e-5 {
		t.Fatalf("focal(γ=0)=%v, bce=%v", focal, bce)
	}
}

// Focal loss must down-weight easy examples relative to BCE.
func TestFocalDownWeightsEasyExamples(t *testing.T) {
	tp := NewTape()
	easy := tensor.NewMatrix(1, 1)
	easy.Data[0] = 5 // confident correct positive
	l := tp.Const(easy)
	bce := tp.BCEWithLogits(l, []float32{1}).Scalar()
	focal := tp.FocalBCEWithLogits(l, []float32{1}, 2).Scalar()
	if focal >= bce {
		t.Fatalf("focal %v should be < bce %v on an easy example", focal, bce)
	}
}

func TestSharedSubexpressionAccumulates(t *testing.T) {
	// loss = sum(p) + sum(p): gradient must be 2 everywhere.
	param := tensor.NewMatrix(2, 2)
	grad := tensor.NewMatrix(2, 2)
	tp := NewTape()
	p := tp.Watch(param, grad)
	loss := tp.Add(tp.sumAll(p), tp.sumAll(p))
	tp.Backward(loss)
	for i, g := range grad.Data {
		if g != 2 {
			t.Fatalf("grad[%d] = %v, want 2", i, g)
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar did not panic")
		}
	}()
	tp := NewTape()
	n := tp.Const(tensor.NewMatrix(2, 2))
	tp.Backward(n)
}

func TestConstHasNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.NewMatrix(1, 1))
	out := tp.sumAll(c)
	tp.Backward(out)
	if c.grad != nil {
		t.Fatal("constant grew a gradient")
	}
}

// rowSink is a GradSink over a dense gradient matrix.
type rowSink struct{ grad *tensor.Matrix }

func (s rowSink) AddRowGrad(id int32, g []float32) {
	dst := s.grad.Row(int(id))
	for j := range dst {
		dst[j] += g[j]
	}
}

func TestGradGather(t *testing.T) {
	// Row 2 is gathered twice and row 1 never: their gradients are the
	// sum of two gathered rows' and zero.
	ids := []int32{2, 0, 2, 3}
	checkGrad(t, "gather", 4, 3, 70, func(tp *Tape, p *Node) *Node {
		w := constMat(tp, rng.New(71), len(ids), 3)
		grad := &tensor.Matrix{Rows: p.Rows(), Cols: p.Cols(), Data: p.grad}
		return tp.sumAll(tp.Mul(tp.gather(&p.Val, ids, rowSink{grad}), w))
	})
}

func TestGatherCopiesRowsAndIDs(t *testing.T) {
	table := &tensor.Matrix{Rows: 3, Cols: 2, Data: []float32{1, 2, 3, 4, 5, 6}}
	grad := tensor.NewMatrix(3, 2)
	ids := []int32{2, 0}
	tp := NewTape()
	n := tp.gather(table, ids, rowSink{grad})
	ids[0], table.Data[4] = 1, 50 // neither may reach the node
	if want := []float32{5, 6, 1, 2}; !equalBits(n.Val.Data, want) {
		t.Fatalf("gathered %v, want %v", n.Val.Data, want)
	}
	tp.Backward(tp.sumAll(n))
	if want := []float32{1, 1, 0, 0, 1, 1}; !equalBits(grad.Data, want) {
		t.Fatalf("row grads %v, want %v", grad.Data, want)
	}
	// Without a sink the rows are constants.
	if c := tp.gather(table, ids, nil); c.needsGrad {
		t.Fatal("sinkless gather needs a gradient")
	}
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// mlpCycle runs one forward/backward cycle of a two-layer network on tp
// and returns the loss, the value of every node and the parameter
// gradients.
func mlpCycle(tp *Tape, x, w1, w2 *tensor.Matrix, targets []float32) (loss float32, vals, grads []float32) {
	g1 := tensor.NewMatrix(w1.Rows, w1.Cols)
	g2 := tensor.NewMatrix(w2.Rows, w2.Cols)
	h := tp.ReLU(tp.MatMul(tp.Const(x), tp.Watch(w1, g1)))
	hm := tp.MeanRows(tp.transpose(h))
	nrm := tp.sqrt(tp.sumAll(tp.Mul(h, h)))
	att := tp.SoftmaxRows(tp.MeanRows(tp.ConcatRows(hm, tp.ScaleBy(nrm, hm))))
	logits := tp.MatMul(tp.Const(x), tp.Watch(w2, g2))
	logits = tp.Add(logits, tp.Scale(0.5, tp.transpose(att)))
	logits = tp.AddBias(logits, tp.Tanh(tp.CosineSim(hm, att)))
	l := tp.FocalBCEWithLogits(logits, targets, 2)
	tp.Backward(l)
	for _, n := range tp.nodes {
		vals = append(vals, n.Val.Data...)
	}
	return l.Scalar(), vals, append(g1.Data, g2.Data...)
}

// A value or gradient carved after Reset is zero and a node carries
// nothing of the last cycle, even when that cycle left poison in every
// slab: a reused tape computes exactly what a fresh one does.
func TestResetCarvesZeroedMemory(t *testing.T) {
	r := rng.New(80)
	rnd := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Float32()*2 - 1
		}
		return m
	}
	x, w1, w2 := rnd(5, 4), rnd(4, 5), rnd(4, 1)
	targets := []float32{1, 0, 0, 1, 1}
	wantLoss, wantVals, wantGrads := mlpCycle(NewTape(), x, w1, w2, targets)

	tp := NewTape()
	mlpCycle(tp, x, w1, w2, targets)
	tp.matrix(1, floatChunk+1) // a take past the chunk cap
	poison := float32(math.NaN())
	stale := tensor.NewMatrix(1, 1)
	for _, c := range tp.floats.chunks {
		for i := range c {
			c[i] = poison
		}
	}
	for _, c := range tp.store.chunks {
		for i := range c {
			c[i].grad, c[i].alpha, c[i].needsGrad = stale.Data, poison, true
		}
	}
	tp.Reset()
	if tp.Len() != 0 || tp.Bytes() != 0 {
		t.Fatalf("after Reset: %d nodes, %d bytes", tp.Len(), tp.Bytes())
	}
	for _, m := range []tensor.Matrix{tp.matrix(3, 7), tp.matrix(1, floatChunk+1)} {
		for i, v := range m.Data {
			if v != 0 {
				t.Fatalf("carved element %d of %d = %v after Reset", i, len(m.Data), v)
			}
		}
	}
	tp.Reset()
	loss, vals, grads := mlpCycle(tp, x, w1, w2, targets)
	if math.Float32bits(loss) != math.Float32bits(wantLoss) || !equalBits(vals, wantVals) || !equalBits(grads, wantGrads) {
		t.Fatalf("reused tape: loss %v, want %v (values equal %v, grads equal %v)",
			loss, wantLoss, equalBits(vals, wantVals), equalBits(grads, wantGrads))
	}
	if tp.Bytes() == 0 {
		t.Fatal("a cycle carved no bytes")
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(99)
	tp := NewTape()
	a, b := constMat(tp, r, 4, 5), constMat(tp, r, 5, 3)
	got := tp.MatMul(a, b).Val
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			var want float64
			for k := 0; k < 5; k++ {
				want += float64(a.Val.Row(i)[k]) * float64(b.Val.Row(k)[j])
			}
			if math.Abs(float64(got.Row(i)[j])-want) > 1e-4 {
				t.Fatalf("MatMul(%d,%d) = %v, want %v", i, j, got.Row(i)[j], want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	tp := NewTape()
	m := constMat(tp, rng.New(7), 3, 4)
	if tt := tp.transpose(tp.transpose(m)); !equalBits(tt.Val.Data, m.Val.Data) || tt.Rows() != 3 {
		t.Fatal("transpose twice is not identity")
	}
}

func TestScalarAccessor(t *testing.T) {
	tp := NewTape()
	m := tensor.NewMatrix(1, 1)
	m.Data[0] = 7
	if tp.Const(m).Scalar() != 7 {
		t.Fatal("Scalar accessor broken")
	}
}

func BenchmarkForwardBackwardMLP(b *testing.B) {
	r := rng.New(1)
	w1 := tensor.NewMatrix(64, 32)
	w2 := tensor.NewMatrix(32, 1)
	for i := range w1.Data {
		w1.Data[i] = r.Float32() - 0.5
	}
	for i := range w2.Data {
		w2.Data[i] = r.Float32() - 0.5
	}
	g1 := tensor.NewMatrix(64, 32)
	g2 := tensor.NewMatrix(32, 1)
	x := tensor.NewMatrix(16, 64)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	targets := make([]float32, 16)
	tp := NewTape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		h := tp.ReLU(tp.MatMul(tp.Const(x), tp.Watch(w1, g1)))
		logits := tp.MatMul(h, tp.Watch(w2, g2))
		loss := tp.BCEWithLogits(logits, targets)
		tp.Backward(loss)
	}
}

func TestGradTranspose(t *testing.T) {
	checkGrad(t, "transpose", 2, 3, 60, func(tp *Tape, p *Node) *Node {
		w := constMat(tp, rng.New(61), 3, 2)
		return tp.sumAll(tp.Mul(tp.transpose(p), w))
	})
}

func TestGradScaleBy(t *testing.T) {
	checkGrad(t, "scaleby-scalar", 1, 1, 62, func(tp *Tape, p *Node) *Node {
		m := constMat(tp, rng.New(63), 2, 3)
		return tp.sumAll(tp.ScaleBy(p, m))
	})
	checkGrad(t, "scaleby-matrix", 2, 3, 64, func(tp *Tape, p *Node) *Node {
		s := constMat(tp, rng.New(65), 1, 1)
		return tp.sumAll(tp.ScaleBy(s, p))
	})
}
