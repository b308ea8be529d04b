// Package tensor implements the dense float32 linear-algebra kernels the
// reproduction is built on: vectors, row-major matrices, GEMM, softmax and
// similarity functions. Storage is float32 (matching embedding-table
// practice in large-scale recommendation systems); reductions accumulate
// in float64 for stability.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float32 vector.
type Vec = []float32

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Dot returns the inner product of a and b. It panics if lengths differ.
// Four independent float64 accumulator lanes break the add dependency
// chain without giving up the float64 accumulation the rest of the
// package guarantees; the AVX2 kernel keeps the identical lane layout,
// so the result is bit-for-bit the same under either dispatch (see
// dispatch_amd64.go for the contract).
func Dot(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dot(a, b)
}

// Axpy computes y += alpha*x in place. It panics if lengths differ.
// Bit-identical across dispatch (elementwise float32, multiply and add
// rounded separately on both sides of the seam).
func Axpy(alpha float32, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// DotAxpy fuses y += alpha*x with the inner product x·w in one traversal
// of x: the serving aggregate both scores a neighbor embedding against an
// attention vector and accumulates it into the output, and fusing keeps x
// cache-resident across the two uses. It panics if lengths differ.
// Bit-identical across dispatch.
func DotAxpy(alpha float32, x, w, y Vec) float32 {
	if len(x) != len(w) || len(x) != len(y) {
		panic(fmt.Sprintf("tensor: DotAxpy length mismatch %d/%d/%d", len(x), len(w), len(y)))
	}
	return dotAxpy(alpha, x, w, y)
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x Vec) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy returns a copy of x.
func Copy(x Vec) Vec {
	out := make(Vec, len(x))
	copy(out, x)
	return out
}

// sqNorm64 is the one squared-norm kernel Norm2, SqNorm and Normalize
// all sit on, kept in float64 until each caller's final rounding so the
// three stay mutually consistent (Normalize used to run its own Norm2
// pass; now norm and squared norm come from the same accumulation).
func sqNorm64(x Vec) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x Vec) float32 {
	return float32(math.Sqrt(sqNorm64(x)))
}

// SqNorm returns the squared Euclidean norm of x.
func SqNorm(x Vec) float32 {
	return float32(sqNorm64(x))
}

// Normalize scales x to unit norm in place. A zero vector is left
// unchanged.
func Normalize(x Vec) {
	n := float32(math.Sqrt(sqNorm64(x)))
	if n == 0 {
		return
	}
	Scale(1/n, x)
}

// Cosine returns the cosine similarity of a and b, or 0 when either has
// zero norm (the conventional choice for sparse recommendation features).
func Cosine(a, b Vec) float32 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// TanimotoWithSqNorm returns the focal-relevance score of the paper's
// eq. (5), given asq = |a|²:
//
//	e = (a·b) / (|a|² + |b|² − a·b)
//
// For non-negative vectors it is the continuous Tanimoto coefficient; the
// paper uses it to score neighbor relevance to the focal vector. When the
// denominator is not positive (both vectors zero, or pathological float
// cancellation) it returns 0. The focal-biased sampler scores one fixed
// focal vector against every neighbor, so |a|² is loop-invariant and the
// per-neighbor cost is a single fused pass over the neighbor's content
// vector, (a·b, b·b) at once, bit-identical across dispatch. It panics if
// lengths differ.
func TanimotoWithSqNorm(a Vec, asq float32, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Tanimoto length mismatch %d vs %d", len(a), len(b)))
	}
	d, bsq := dotSq(a, b)
	den := asq + bsq - d
	if den <= 0 {
		return 0
	}
	return d / den
}

// tanimoto is eq. (5) from separate Dot and SqNorm passes: the reference
// TanimotoWithSqNorm's fused kernel is tested against.
func tanimoto(a, b Vec) float32 {
	d := Dot(a, b)
	den := SqNorm(a) + SqNorm(b) - d
	if den <= 0 {
		return 0
	}
	return d / den
}

// Softmax writes the softmax of x into out (which may alias x) and
// returns out. It is numerically stabilized by max subtraction.
func Softmax(x, out Vec) Vec {
	if len(out) != len(x) {
		panic("tensor: Softmax output length mismatch")
	}
	if len(x) == 0 {
		return out
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Sigmoid returns 1/(1+exp(-x)) computed stably.
func Sigmoid(x float32) float32 {
	if x >= 0 {
		z := float32(math.Exp(-float64(x)))
		return 1 / (1 + z)
	}
	z := float32(math.Exp(float64(x)))
	return z / (1 + z)
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vec {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes out = m · x. It panics on shape mismatch. Each row is
// one Dot-kernel call, so the nn/training forward path rides the same
// 4-lane (and, under dispatch, vectorized) kernel as the serving path
// instead of the old single-accumulator row loop.
func MatVec(m *Matrix, x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch (%dx%d)·%d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = dot(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MatVecT computes out = mᵀ · x (x has length Rows, out has length Cols).
// Row i contributes out += x[i]·row — the Axpy kernel — with zero rows
// of x skipped (identical bits either way except for signed-zero inputs,
// and a skip is cheaper than 2·Cols flops). Bit-identical across
// dispatch: elementwise float32 with multiply and add rounded
// separately.
func MatVecT(m *Matrix, x, out Vec) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch (%dx%d)ᵀ·%d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpy(xi, m.Data[i*m.Cols:(i+1)*m.Cols], out)
	}
}

// MatMul returns a·b. It panics on shape mismatch. The kernel is the
// cache-friendly i-k-j ordering over row-major storage.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// GemmAcc accumulates dst += op(a)·op(b), where op is the optional
// transpose selected by transA/transB. It is the workhorse of autodiff
// backward passes, which need transposed products accumulated into
// existing gradient buffers. It panics on shape mismatch.
func GemmAcc(dst, a, b *Matrix, transA, transB bool) {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	br, bc := b.Rows, b.Cols
	if transB {
		br, bc = bc, br
	}
	if ac != br || dst.Rows != ar || dst.Cols != bc {
		panic(fmt.Sprintf("tensor: GemmAcc shape mismatch (%dx%d)·(%dx%d) -> (%dx%d)", ar, ac, br, bc, dst.Rows, dst.Cols))
	}
	at := func(i, k int) float32 {
		if transA {
			return a.Data[k*a.Cols+i]
		}
		return a.Data[i*a.Cols+k]
	}
	for i := 0; i < ar; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k := 0; k < ac; k++ {
			av := at(i, k)
			if av == 0 {
				continue
			}
			if transB {
				for j := 0; j < bc; j++ {
					drow[j] += av * b.Data[j*b.Cols+k]
				}
			} else {
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}
