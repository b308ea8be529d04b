//go:build !purego

package tensor

import (
	"fmt"
	"math"
	"testing"

	"zoomer/internal/rng"
)

// The cross-check suite: every vectorized kernel against its generic
// reference, asserting BIT-identity (not tolerance) on fuzzed lengths —
// including the <4 and non-multiple-of-8 tails and the 0/1 edges — and
// on adversarial values (denormals, huge/tiny magnitude mixes). This is
// the contract that makes dispatch invisible to sampler draws and ANN
// rankings; see dispatch_amd64.go. The same package tests also run
// under -tags purego, where the public kernels ARE the references and
// the contract holds trivially.

// fuzzLens covers every alignment class of the vector loops: the 4-wide
// f64 lanes, the 2-wide pairs and the 8-wide f32 blocks, each with
// 0..full tails.
var fuzzLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 16, 17, 23, 24, 31, 32, 33, 47, 63, 64, 65, 100, 127, 128, 129, 255, 256, 1000}

func fuzzVec(r *rng.RNG, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(r.NormFloat64()) * 1e-40 // denormal range
		case 2:
			v[i] = float32(r.NormFloat64()) * 1e20
		case 3:
			v[i] = float32(r.NormFloat64()) * 1e-20
		default:
			v[i] = float32(r.NormFloat64())
		}
	}
	return v
}

func requireSameBits(t *testing.T, what string, n int, got, want float32) {
	t.Helper()
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s len=%d: asm %v (bits %#x) != generic %v (bits %#x)",
			what, n, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

func TestDotAVX2BitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(11)
	for _, n := range fuzzLens {
		for rep := 0; rep < 8; rep++ {
			a, b := fuzzVec(r, n), fuzzVec(r, n)
			requireSameBits(t, "Dot", n, dotAVX2(a, b), dotGeneric(a, b))
		}
	}
}

func TestDotSqAVX2BitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(12)
	for _, n := range fuzzLens {
		for rep := 0; rep < 8; rep++ {
			a, b := fuzzVec(r, n), fuzzVec(r, n)
			d, q := dotSqAVX2(a, b)
			wd, wq := dotSqGeneric(a, b)
			requireSameBits(t, "DotSq.dot", n, d, wd)
			requireSameBits(t, "DotSq.bsq", n, q, wq)
		}
	}
}

func TestAxpyAVX2BitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(13)
	for _, n := range fuzzLens {
		for rep := 0; rep < 8; rep++ {
			alpha := float32(r.NormFloat64())
			x := fuzzVec(r, n)
			y := fuzzVec(r, n)
			yAsm := Copy(y)
			axpyAVX2(alpha, x, yAsm)
			axpyGeneric(alpha, x, y)
			for i := range y {
				requireSameBits(t, "Axpy", n, yAsm[i], y[i])
			}
		}
	}
}

func TestDotAxpyAVX2BitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rng.New(14)
	for _, n := range fuzzLens {
		for rep := 0; rep < 8; rep++ {
			alpha := float32(r.NormFloat64())
			x, w := fuzzVec(r, n), fuzzVec(r, n)
			y := fuzzVec(r, n)
			yAsm := Copy(y)
			requireSameBits(t, "DotAxpy.dot", n,
				dotAxpyAVX2(alpha, x, w, yAsm), dotAxpyGeneric(alpha, x, w, y))
			for i := range y {
				requireSameBits(t, "DotAxpy.y", n, yAsm[i], y[i])
			}
		}
	}
}

// TestMatVecTBitIdenticalAcrossDispatch drives the public MatVecT (which
// routes rows through the dispatched Axpy kernel) against an inline
// replica of the pre-seam generic loop.
func TestMatVecTBitIdenticalAcrossDispatch(t *testing.T) {
	r := rng.New(16)
	for _, rows := range []int{1, 3, 7, 16} {
		for _, cols := range []int{1, 2, 5, 31, 64, 65} {
			m := NewMatrix(rows, cols)
			copy(m.Data, fuzzVec(r, rows*cols))
			x := fuzzVec(r, rows)
			if rows > 2 {
				x[1] = 0 // exercise the zero-row skip
			}
			got := make(Vec, cols)
			MatVecT(m, x, got)

			want := make(Vec, cols)
			for i := 0; i < rows; i++ {
				xi := x[i]
				if xi == 0 {
					continue
				}
				row := m.Data[i*cols : (i+1)*cols]
				for j, v := range row {
					want[j] += xi * v
				}
			}
			for j := range want {
				requireSameBits(t, "MatVecT", cols, got[j], want[j])
			}
		}
	}
}

// spikyVec draws from {0, ±1, ±1e20}: products of two such vectors
// cancel exactly or vanish next to one another, so the float32 result
// shows the order in which lanes were summed, which random values almost
// never do.
func spikyVec(r *rng.RNG, n int) Vec {
	vals := []float32{0, 1, -1, 1e20, -1e20}
	v := make(Vec, n)
	for i := range v {
		v[i] = vals[r.Intn(len(vals))]
	}
	return v
}

// TestMatVecMatchesPerRowDot holds every MatVec path to per-row Dot:
// the public MatVec, the AVX2 path (four-row kernel plus per-row
// leftovers) and the generic path, over every row count 0-13 (each
// remainder mod 4, zero to three full quads) and column counts that
// cover each tail length of the 4-wide lanes, on fuzzed and on spiky
// values.
func TestMatVecMatchesPerRowDot(t *testing.T) {
	r := rng.New(17)
	paths := map[string]func(m *Matrix, x, out Vec){"MatVec": MatVec, "generic": matVecGeneric}
	if useAVX2 {
		paths["avx2"] = matVecAVX2
	}
	for _, gen := range []func(*rng.RNG, int) Vec{fuzzVec, spikyVec} {
		for rows := 0; rows <= 13; rows++ {
			for _, cols := range []int{0, 1, 3, 4, 5, 31, 32, 33, 37, 64, 128} {
				m := NewMatrix(rows, cols)
				copy(m.Data, gen(r, rows*cols))
				x := gen(r, cols)
				for name, mv := range paths {
					out := make(Vec, rows)
					for i := range out {
						out[i] = float32(math.NaN()) // every output must be written
					}
					mv(m, x, out)
					for i := range out {
						row := m.Data[i*cols : (i+1)*cols]
						requireSameBits(t, fmt.Sprintf("%s %dx%d row %d vs generic", name, rows, cols, i), cols, out[i], dotGeneric(row, x))
						requireSameBits(t, fmt.Sprintf("%s %dx%d row %d vs Dot", name, rows, cols, i), cols, out[i], Dot(row, x))
					}
				}
			}
		}
	}
}
