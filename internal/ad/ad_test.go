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
		return tp.sumAll(tp.Sqrt(tp.Add(sq, tp.Const(one))))
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
		return tp.Dot(p, b)
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
	if c.Grad != nil {
		t.Fatal("constant grew a gradient")
	}
}

func TestCustomNode(t *testing.T) {
	// A custom square op: y = x², dy/dx = 2x.
	param := tensor.NewMatrix(1, 3)
	copy(param.Data, []float32{1, 2, 3})
	grad := tensor.NewMatrix(1, 3)
	tp := NewTape()
	p := tp.Watch(param, grad)
	val := tensor.NewMatrix(1, 3)
	for i, v := range param.Data {
		val.Data[i] = v * v
	}
	sq := tp.Custom(val, true, func(out *Node) {
		for i := range grad.Data {
			p.Grad.Data[i] += out.Grad.Data[i] * 2 * param.Data[i]
		}
	})
	tp.Backward(tp.sumAll(sq))
	want := []float32{2, 4, 6}
	for i := range want {
		if grad.Data[i] != want[i] {
			t.Fatalf("custom grad = %v, want %v", grad.Data, want)
		}
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		h := tp.ReLU(tp.MatMul(tp.Const(x), tp.Watch(w1, g1)))
		logits := tp.MatMul(h, tp.Watch(w2, g2))
		loss := tp.BCEWithLogits(logits, targets)
		tp.Backward(loss)
	}
}

func TestGradTranspose(t *testing.T) {
	checkGrad(t, "transpose", 2, 3, 60, func(tp *Tape, p *Node) *Node {
		w := constMat(tp, rng.New(61), 3, 2)
		return tp.sumAll(tp.Mul(tp.Transpose(p), w))
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
