package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"zoomer/internal/rng"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func randVec(r *rng.RNG, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = r.Float32()*2 - 1
	}
	return v
}

func TestDot(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestAxpyScaleAddSubMul(t *testing.T) {
	y := Vec{1, 1, 1}
	Axpy(2, Vec{1, 2, 3}, y)
	want := Vec{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Fatalf("Scale: got %v", y)
	}
}

func TestNormAndNormalize(t *testing.T) {
	v := Vec{3, 4}
	if n := Norm2(v); !almostEq(n, 5, 1e-6) {
		t.Fatalf("Norm2 = %v", n)
	}
	if n := SqNorm(v); !almostEq(n, 25, 1e-5) {
		t.Fatalf("SqNorm = %v", n)
	}
	Normalize(v)
	if !almostEq(Norm2(v), 1, 1e-6) {
		t.Fatalf("Normalize: norm = %v", Norm2(v))
	}
	z := Vec{0, 0}
	Normalize(z) // must not NaN
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize(0) changed vector: %v", z)
	}
}

func TestCosine(t *testing.T) {
	if c := Cosine(Vec{1, 0}, Vec{0, 1}); !almostEq(c, 0, 1e-6) {
		t.Fatalf("orthogonal cosine = %v", c)
	}
	if c := Cosine(Vec{1, 2}, Vec{2, 4}); !almostEq(c, 1, 1e-6) {
		t.Fatalf("parallel cosine = %v", c)
	}
	if c := Cosine(Vec{1, 1}, Vec{-1, -1}); !almostEq(c, -1, 1e-6) {
		t.Fatalf("antiparallel cosine = %v", c)
	}
	if c := Cosine(Vec{0, 0}, Vec{1, 1}); c != 0 {
		t.Fatalf("zero-vector cosine = %v", c)
	}
}

func TestTanimotoProperties(t *testing.T) {
	// Identity: tanimoto(x, x) = 1 for any non-zero x.
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		v := randVec(r, 8)
		if SqNorm(v) == 0 {
			continue
		}
		if got := tanimoto(v, v); !almostEq(got, 1, 1e-4) {
			t.Fatalf("tanimoto(x,x) = %v, want 1", got)
		}
	}
	// Zero vectors.
	if got := tanimoto(Vec{0, 0}, Vec{0, 0}); got != 0 {
		t.Fatalf("tanimoto(0,0) = %v", got)
	}
	// Known value: a=(1,0), b=(0,1): dot 0 -> score 0.
	if got := tanimoto(Vec{1, 0}, Vec{0, 1}); got != 0 {
		t.Fatalf("Tanimoto orth = %v", got)
	}
	// Monotone in overlap for binary-ish vectors: more shared mass wins.
	a := Vec{1, 1, 1, 0}
	closer := Vec{1, 1, 0, 0}
	farther := Vec{1, 0, 0, 0}
	if !(tanimoto(a, closer) > tanimoto(a, farther)) {
		t.Fatal("Tanimoto not monotone in overlap")
	}
}

func TestSoftmaxNormalizes(t *testing.T) {
	r := rng.New(17)
	if err := quick.Check(func(seed uint32) bool {
		n := int(seed%16) + 1
		x := randVec(r, n)
		// Include large magnitudes to check stability.
		x[0] += 100
		out := make(Vec, n)
		Softmax(x, out)
		var sum float64
		for _, v := range out {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxOrderPreserving(t *testing.T) {
	x := Vec{1, 3, 2}
	out := make(Vec, 3)
	Softmax(x, out)
	if !(out[1] > out[2] && out[2] > out[0]) {
		t.Fatalf("softmax order violated: %v", out)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	out := Softmax(Vec{}, Vec{})
	if len(out) != 0 {
		t.Fatal("empty softmax should be empty")
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); !almostEq(s, 0.5, 1e-6) {
		t.Fatalf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); !almostEq(s, 1, 1e-6) {
		t.Fatalf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); !almostEq(s, 0, 1e-6) {
		t.Fatalf("Sigmoid(-100) = %v", s)
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float32{-3, -0.5, 0.7, 2} {
		if !almostEq(Sigmoid(-x), 1-Sigmoid(x), 1e-5) {
			t.Fatalf("sigmoid symmetry failed at %v", x)
		}
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	out := make(Vec, 2)
	MatVec(m, Vec{1, 1, 1}, out)
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("MatVec = %v", out)
	}
	tout := make(Vec, 3)
	MatVecT(m, Vec{1, 1}, tout)
	if tout[0] != 5 || tout[1] != 7 || tout[2] != 9 {
		t.Fatalf("MatVecT = %v", tout)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 7
	if m.Row(1)[0] != 7 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[1] = 9
	if m.Row(1)[1] != 9 {
		t.Fatal("Row is not a live view")
	}
	c := m.Clone()
	c.Row(0)[0] = 5
	if m.Row(0)[0] == 5 {
		t.Fatal("Clone aliases original")
	}
}

func BenchmarkDot128(b *testing.B) {
	r := rng.New(1)
	x, y := randVec(r, 128), randVec(r, 128)
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkGemmAcc64(b *testing.B) {
	r := rng.New(1)
	m := NewMatrix(64, 64)
	for i := range m.Data {
		m.Data[i] = r.Float32()
	}
	dst := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmAcc(dst, m, m, false, false)
	}
}

// matMul is the i-k-j product GemmAcc is held to: zero a elements
// skipped, each output element a float32 multiply-add chain in k order.
func matMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Row(i)[k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.Row(k)[j]
			}
		}
	}
	return out
}

func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Row(j)[i] = m.Row(i)[j]
		}
	}
	return out
}

// GemmAcc must reproduce the scalar i-k-j product bit for bit, for every
// transpose and for rows on either side of the Axpy kernel cut-off, so a
// training step computes the same weights under either dispatch.
func TestGemmAccBitIdenticalToScalarProduct(t *testing.T) {
	r := rng.New(321)
	fill := func(m *Matrix) {
		for i := range m.Data {
			if r.Intn(5) == 0 {
				continue // exercise the zero skip
			}
			m.Data[i] = float32(r.NormFloat64())
		}
	}
	for _, shape := range [][3]int{{1, 96, 1}, {1, 1, 1}, {5, 1, 32}, {6, 1, 3}, {4, 9, 1}, {3, 5, 7}, {4, 8, 8}, {2, 32, 33}, {5, 3, 64}, {1, 17, 100}} {
		ar, ac, bc := shape[0], shape[1], shape[2]
		a, b, seed := NewMatrix(ar, ac), NewMatrix(ac, bc), NewMatrix(ar, bc)
		fill(a)
		fill(b)
		fill(seed)
		want := matMul(a, b)
		for i := range want.Data {
			want.Data[i] = seed.Data[i]
		}
		// Accumulating onto seed: the reference adds the same terms in the
		// same order onto the same start values.
		for i := 0; i < ar; i++ {
			for k := 0; k < ac; k++ {
				if av := a.Row(i)[k]; av != 0 {
					for j := 0; j < bc; j++ {
						want.Data[i*bc+j] += av * b.Row(k)[j]
					}
				}
			}
		}
		for _, tr := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			aa, bb := a, b
			if tr[0] {
				aa = transpose(a)
			}
			if tr[1] {
				bb = transpose(b)
			}
			got := seed.Clone()
			GemmAcc(got, aa, bb, tr[0], tr[1])
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%v trans=%v: element %d = %v, want %v", shape, tr, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestGemmAccAgainstMatMul(t *testing.T) {
	r := rng.New(123)
	a := NewMatrix(3, 4)
	b := NewMatrix(4, 2)
	for i := range a.Data {
		a.Data[i] = r.Float32() - 0.5
	}
	for i := range b.Data {
		b.Data[i] = r.Float32() - 0.5
	}
	want := matMul(a, b)

	// No transpose.
	dst := NewMatrix(3, 2)
	GemmAcc(dst, a, b, false, false)
	for i := range dst.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-5) {
			t.Fatal("GemmAcc(false,false) mismatch")
		}
	}
	// Accumulation: running twice doubles.
	GemmAcc(dst, a, b, false, false)
	for i := range dst.Data {
		if !almostEq(dst.Data[i], 2*want.Data[i], 1e-5) {
			t.Fatal("GemmAcc does not accumulate")
		}
	}
	// transA: aᵀ has shape 4x3; (aᵀ)ᵀ·b would mismatch, so check aᵀ·want2
	at := transpose(a)
	dst2 := NewMatrix(3, 2)
	GemmAcc(dst2, at, b, true, false)
	for i := range dst2.Data {
		if !almostEq(dst2.Data[i], want.Data[i], 1e-5) {
			t.Fatal("GemmAcc(true,false) mismatch")
		}
	}
	// transB.
	bt := transpose(b)
	dst3 := NewMatrix(3, 2)
	GemmAcc(dst3, a, bt, false, true)
	for i := range dst3.Data {
		if !almostEq(dst3.Data[i], want.Data[i], 1e-5) {
			t.Fatal("GemmAcc(false,true) mismatch")
		}
	}
	// Both.
	dst4 := NewMatrix(3, 2)
	GemmAcc(dst4, at, bt, true, true)
	for i := range dst4.Data {
		if !almostEq(dst4.Data[i], want.Data[i], 1e-5) {
			t.Fatal("GemmAcc(true,true) mismatch")
		}
	}
}

func TestDotSqMatchesSeparate(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 33} {
		a, b := make(Vec, n), make(Vec, n)
		for i := 0; i < n; i++ {
			a[i] = float32(i%5) - 2
			b[i] = float32(i%3) + 0.5
		}
		d, bsq := dotSq(a, b)
		if wd := Dot(a, b); absf(d-wd) > 1e-5 {
			t.Fatalf("n=%d: dotSq dot %v vs Dot %v", n, d, wd)
		}
		if wq := SqNorm(b); absf(bsq-wq) > 1e-5 {
			t.Fatalf("n=%d: dotSq sqnorm %v vs SqNorm %v", n, bsq, wq)
		}
	}
}

func TestDotAxpyFusesBothResults(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 31} {
		x, w, y := make(Vec, n), make(Vec, n), make(Vec, n)
		for i := 0; i < n; i++ {
			x[i] = float32(i) - 1.5
			w[i] = float32(i%4) * 0.25
			y[i] = float32(i % 7)
		}
		wantDot := Dot(x, w)
		wantY := Copy(y)
		Axpy(0.75, x, wantY)
		got := DotAxpy(0.75, x, w, y)
		if absf(got-wantDot) > 1e-5 {
			t.Fatalf("n=%d: dot %v, want %v", n, got, wantDot)
		}
		for i := range y {
			if absf(y[i]-wantY[i]) > 1e-5 {
				t.Fatalf("n=%d: y[%d]=%v, want %v", n, i, y[i], wantY[i])
			}
		}
	}
}

func TestTanimotoWithSqNormMatches(t *testing.T) {
	a := Vec{1, 0.5, -0.25, 2}
	b := Vec{0.5, 1, 0.75, -1}
	if got, want := TanimotoWithSqNorm(a, SqNorm(a), b), tanimoto(a, b); absf(got-want) > 1e-6 {
		t.Fatalf("TanimotoWithSqNorm %v vs Tanimoto %v", got, want)
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
