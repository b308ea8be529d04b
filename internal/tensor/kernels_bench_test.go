package tensor

import (
	"fmt"
	"testing"

	"zoomer/internal/rng"
)

// Kernel-era benchmarks: the dispatched public kernels at the dims the
// serving stack actually runs (32/64 embeddings, 256 for headroom), and
// the generic references beside them so one run shows the seam's win.
// bench.sh records BenchmarkDot*/BenchmarkMatVecT*/BenchmarkAxpy* in
// BENCH_hotpath.json next to the active `simd` dispatch.

func benchVecs(n int) (Vec, Vec) {
	r := rng.New(uint64(n) + 1)
	a, b := make(Vec, n), make(Vec, n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
		b[i] = float32(r.NormFloat64())
	}
	return a, b
}

var sinkF32 float32

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{32, 64, 256} {
		a, x := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = Dot(a, x)
			}
		})
		b.Run(fmt.Sprintf("dim%d-generic", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = DotGeneric(a, x)
			}
		})
	}
}

func BenchmarkDotSq(b *testing.B) {
	for _, n := range []int{32, 64} {
		a, x := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32, _ = dotSq(a, x)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{32, 64, 256} {
		x, y := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkDotAxpy(b *testing.B) {
	for _, n := range []int{32, 64} {
		x, w := benchVecs(n)
		y := make(Vec, n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = DotAxpy(0.5, x, w, y)
			}
		})
	}
}

func BenchmarkMatVecT(b *testing.B) {
	for _, dim := range []int{64, 128} {
		m := NewMatrix(dim, dim)
		x, out := benchVecs(dim)
		r := rng.New(9)
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("%dx%d", dim, dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatVecT(m, x, out)
			}
		})
		b.Run(fmt.Sprintf("%dx%d-generic", dim, dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = 0
				}
				for row := 0; row < dim; row++ {
					xi := x[row]
					if xi == 0 {
						continue
					}
					AxpyGeneric(xi, m.Data[row*dim:(row+1)*dim], out)
				}
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	dim := 64
	m := NewMatrix(dim, dim)
	r := rng.New(9)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	x, out := benchVecs(dim)
	b.Run(fmt.Sprintf("%dx%d", dim, dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatVec(m, x, out)
		}
	})
}
