// The portable reference kernels. These are the exact loops the package
// shipped before the SIMD seam: every vectorized implementation in
// kernels_amd64.s replicates their accumulation order (see the bit-
// identity contract in dispatch_amd64.go), and the cross-check tests in
// kernels_equiv_test.go hold the two sides together. They compile on
// every architecture and are selected at build time by the `purego` tag
// or at init time when the CPU lacks AVX2+FMA.
package tensor

// dotGeneric is the 4-lane float64-accumulated inner product. The four
// accumulator lanes are independent (lane k sums elements ≡ k mod 4 in
// index order), the tail folds into lane 0, and the final reduction is
// (s0+s1)+(s2+s3). The vector kernel keeps this exact order, and float64
// products of float32 inputs are exact (24+24 significand bits fit in
// 53), so the two implementations agree bit for bit.
func dotGeneric(a, b Vec) float32 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return float32((s0 + s1) + (s2 + s3))
}

// dotSqGeneric fuses a·b with b·b: 2-lane float64 accumulation for both
// sums (lane k sums elements ≡ k mod 2), tail into lane 0, reduction
// d0+d1 / q0+q1.
func dotSqGeneric(a, b Vec) (dot, bsq float32) {
	var d0, d1, q0, q1 float64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		x0, x1 := float64(b[i]), float64(b[i+1])
		d0 += float64(a[i]) * x0
		d1 += float64(a[i+1]) * x1
		q0 += x0 * x0
		q1 += x1 * x1
	}
	for ; i < len(a); i++ {
		x := float64(b[i])
		d0 += float64(a[i]) * x
		q0 += x * x
	}
	return float32(d0 + d1), float32(q0 + q1)
}

// axpyGeneric computes y += alpha*x elementwise in float32: a separately
// rounded multiply then add per element, never fused, so the vector
// kernel (VMULPS+VADDPS, not FMA) lands on identical bits. Also the
// per-row kernel of MatVecT.
func axpyGeneric(alpha float32, x, y Vec) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// dotAxpyGeneric fuses x·w (2-lane float64 accumulation, as dotSqGeneric)
// with y += alpha*x (elementwise float32, as axpyGeneric).
func dotAxpyGeneric(alpha float32, x, w, y Vec) float32 {
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(x); i += 2 {
		x0, x1 := x[i], x[i+1]
		s0 += float64(x0) * float64(w[i])
		s1 += float64(x1) * float64(w[i+1])
		y[i] += alpha * x0
		y[i+1] += alpha * x1
	}
	for ; i < len(x); i++ {
		s0 += float64(x[i]) * float64(w[i])
		y[i] += alpha * x[i]
	}
	return float32(s0 + s1)
}
