//go:build !purego

// The amd64 side of the kernel seam. At init the package probes CPUID
// for AVX2+FMA (plus OS-enabled YMM state via XGETBV) and routes the
// five hot kernels — Dot, dotSq, Axpy, DotAxpy and MatVec — to the
// hand-written vector implementations in kernels_amd64.s. MatVec scores
// four rows per kernel pass (matVec4AVX2) and any leftover rows with
// Dot; MatVecT rides the Axpy kernel per row.
//
// Bit-identity contract: the vector kernels replicate the generic
// kernels' accumulation order exactly — Dot keeps the 4 independent
// float64 accumulator lanes (one YMM register, lane k summing elements
// ≡ k mod 4 in index order, scalar tail into lane 0) and the
// (s0+s1)+(s2+s3) reduction, and so does each of matVec4AVX2's four
// rows, so every MatVec output is Dot(row, x); dotSq/DotAxpy keep the
// 2-lane layout; the float32 elementwise kernels use separate multiply
// and add (no FMA — fusing would skip the intermediate rounding the
// generic code performs). Float64 products of float32 inputs are exact, so FMA in
// the float64 reductions is safe. The upshot: a draw, a ranking or an
// embedding computed under AVX2 dispatch is bit-for-bit the one the
// purego build computes, pinned by kernels_equiv_amd64_test.go.
package tensor

// useAVX2 routes the dispatch points below, decided once at init and
// never mutated — dispatch is deterministic for the process lifetime.
// Benchmarks reach the reference path through the exported *Generic
// aliases in export_test.go rather than by flipping this.
var useAVX2 = detectAVX2()

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the CPU and OS support the kernels in
// kernels_amd64.s: AVX2 and FMA instruction sets, with XMM+YMM state
// enabled by the OS (OSXSAVE + XCR0 bits 1-2 — a hypervisor or minimal
// kernel can expose AVX2 via CPUID while not context-switching YMM).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// SIMD reports the active kernel dispatch, recorded by bench.sh in the
// BENCH_hotpath.json header so perf trajectories name their kernel era.
func SIMD() string {
	if useAVX2 {
		return "avx2"
	}
	return "purego"
}

// Assembly kernels (kernels_amd64.s).
func dotAVX2(a, b Vec) float32
func dotSqAVX2(a, b Vec) (dot, bsq float32)
func axpyAVX2(alpha float32, x, y Vec)
func dotAxpyAVX2(alpha float32, x, w, y Vec) float32
func matVec4AVX2(m, x, out Vec)

func dot(a, b Vec) float32 {
	if useAVX2 {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

func dotSq(a, b Vec) (float32, float32) {
	if useAVX2 {
		return dotSqAVX2(a, b)
	}
	return dotSqGeneric(a, b)
}

func axpy(alpha float32, x, y Vec) {
	if useAVX2 {
		axpyAVX2(alpha, x, y)
		return
	}
	axpyGeneric(alpha, x, y)
}

func dotAxpy(alpha float32, x, w, y Vec) float32 {
	if useAVX2 {
		return dotAxpyAVX2(alpha, x, w, y)
	}
	return dotAxpyGeneric(alpha, x, w, y)
}

func matVec(m *Matrix, x, out Vec) {
	if useAVX2 {
		matVecAVX2(m, x, out)
		return
	}
	matVecGeneric(m, x, out)
}

// matVecAVX2 scores the rows four at a time and the last Rows mod 4 with
// Dot's kernel.
func matVecAVX2(m *Matrix, x, out Vec) {
	quads := m.Rows &^ 3
	matVec4AVX2(m.Data[:quads*m.Cols], x, out[:quads])
	for i := quads; i < m.Rows; i++ {
		out[i] = dotAVX2(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}
