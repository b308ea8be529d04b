//go:build !amd64 || purego

// The no-assembly side of the kernel seam: non-amd64 architectures, and
// any build with -tags purego (the cross-checking leg `make ci` runs).
// Every dispatch point is the generic kernel, so a purego binary is the
// reference the vectorized build is held bit-identical against.
package tensor

// SIMD reports the active kernel dispatch, recorded by bench.sh in the
// BENCH_hotpath.json header so perf trajectories name their kernel era.
func SIMD() string { return "purego" }

func dot(a, b Vec) float32                       { return dotGeneric(a, b) }
func dotSq(a, b Vec) (float32, float32)          { return dotSqGeneric(a, b) }
func axpy(alpha float32, x, y Vec)               { axpyGeneric(alpha, x, y) }
func dotAxpy(alpha float32, x, w, y Vec) float32 { return dotAxpyGeneric(alpha, x, w, y) }
func matVec(m *Matrix, x, out Vec)               { matVecGeneric(m, x, out) }
