//go:build !purego

// AVX2/FMA implementations of the hot kernels. Each replicates the
// accumulation order of its generic counterpart in kernels_generic.go —
// see the bit-identity contract in dispatch_amd64.go. Two invariants the
// code below leans on:
//
//   - float64 products of float32 inputs are exact (24+24 significand
//     bits fit in 53), so VFMADD231PD over converted inputs rounds at
//     exactly the points the generic mul-then-add does;
//   - the float32 elementwise kernels must NOT use FMA: a float32
//     product of float32 inputs is not exactly representable, and the
//     generic code rounds the multiply before the add.
//
// All loops tolerate len 0 and short tails; no stack is used (NOSPLIT,
// frame size 0). Each main loop starts on a 32-byte boundary (PCALIGN):
// the linker places functions only at 32-byte boundaries, so without the
// pad an edit elsewhere in the package moves the loops relative to the
// CPU's fetch blocks, which has read as a ~1.3x slowdown of an unchanged
// kernel.

#include "textflag.h"

// func dotAVX2(a, b []float32) float32
//
// One YMM register holds the 4 independent float64 accumulator lanes
// [s0 s1 s2 s3]; each iteration converts 4 floats from both operands
// and fuse-accumulates, so lane k sums elements ≡ k mod 4 in index
// order, exactly like dotGeneric. The scalar tail folds into lane 0,
// and the reduction is (s0+s1)+(s2+s3).
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   dot_tail_setup
	PCALIGN $32
dot_loop4:
	VCVTPS2PD (SI), Y1
	VCVTPS2PD (DI), Y2
	VFMADD231PD Y2, Y1, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ BX
	JNZ  dot_loop4
dot_tail_setup:
	VEXTRACTF128 $1, Y0, X1 // X1 = [s2 s3]; X0 = [s0 s1]
	ANDQ $3, CX
	JZ   dot_reduce
dot_tail:
	VCVTSS2SD (SI), X3, X3
	VCVTSS2SD (DI), X4, X4
	VMULSD X4, X3, X3
	VADDSD X3, X0, X0 // s0 += a[i]*b[i], sequentially, upper lane (s1) preserved
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dot_tail
dot_reduce:
	VPERMILPD $1, X0, X5
	VADDSD X5, X0, X0 // s0+s1
	VPERMILPD $1, X1, X6
	VADDSD X6, X1, X1 // s2+s3
	VADDSD X1, X0, X0 // (s0+s1)+(s2+s3)
	VCVTSD2SS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func dotSqAVX2(a, b []float32) (dot, bsq float32)
//
// Two XMM accumulators carry the 2-lane float64 sums [d0 d1] and
// [q0 q1] of dotSqGeneric; each iteration converts one float pair from
// both operands and feeds two independent FMA chains (a·b and b·b).
TEXT ·dotSqAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPD X0, X0, X0 // [d0 d1]
	VXORPD X5, X5, X5 // [q0 q1]
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   dotsq_tail
	PCALIGN $32
dotsq_loop2:
	VCVTPS2PD (SI), X1
	VCVTPS2PD (DI), X2
	VFMADD231PD X2, X1, X0 // d += a*b
	VFMADD231PD X2, X2, X5 // q += b*b
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ  dotsq_loop2
dotsq_tail:
	ANDQ $1, CX
	JZ   dotsq_reduce
	VCVTSS2SD (SI), X1, X1
	VCVTSS2SD (DI), X2, X2
	VMULSD X2, X1, X3
	VADDSD X3, X0, X0 // d0 += a*b
	VMULSD X2, X2, X4
	VADDSD X4, X5, X5 // q0 += b*b
dotsq_reduce:
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0 // d0+d1
	VPERMILPD $1, X5, X6
	VADDSD X6, X5, X5 // q0+q1
	VCVTSD2SS X0, X0, X0
	VCVTSD2SS X5, X5, X5
	MOVSS X0, dot+48(FP)
	MOVSS X5, bsq+52(FP)
	RET

// func axpyAVX2(alpha float32, x, y []float32)
//
// Elementwise y += alpha*x, 8 floats per iteration. Multiply and add
// stay separate instructions so every element is rounded exactly where
// axpyGeneric rounds it; elementwise float32 has no accumulation order,
// so any width is bit-identical. Also the per-row kernel of MatVecT.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpy_tail_setup
	PCALIGN $32
axpy_loop8:
	VMOVUPS (SI), Y1
	VMULPS Y0, Y1, Y1
	VADDPS (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  axpy_loop8
axpy_tail_setup:
	ANDQ $7, CX
	JZ   axpy_done
axpy_tail:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  axpy_tail
axpy_done:
	VZEROUPPER
	RET

// func dotAxpyAVX2(alpha float32, x, w, y []float32) float32
//
// Fuses the 2-lane float64 dot chain of x·w with the elementwise
// float32 y += alpha*x, one pair per iteration — the float64 FMA chain
// and the float32 mul/add stream issue on separate ports, keeping x
// cache-resident across its two uses exactly like dotAxpyGeneric.
TEXT ·dotAxpyAVX2(SB), NOSPLIT, $0-84
	MOVQ x_base+8(FP), SI
	MOVQ w_base+32(FP), DX
	MOVQ y_base+56(FP), DI
	MOVQ x_len+16(FP), CX
	VBROADCASTSS alpha+0(FP), X7
	VXORPD X0, X0, X0 // [s0 s1]
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   da_tail
	PCALIGN $32
da_loop2:
	VCVTPS2PD (SI), X1
	VCVTPS2PD (DX), X2
	VFMADD231PD X2, X1, X0 // s += x*w in float64
	VMOVSD (SI), X3        // the same x pair, as float32
	VMULPS X7, X3, X3
	VMOVSD (DI), X4
	VADDPS X4, X3, X3
	VMOVSD X3, (DI)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, DI
	DECQ BX
	JNZ  da_loop2
da_tail:
	ANDQ $1, CX
	JZ   da_reduce
	VCVTSS2SD (SI), X1, X1
	VCVTSS2SD (DX), X2, X2
	VMULSD X2, X1, X3
	VADDSD X3, X0, X0
	VMOVSS (SI), X3
	VMULSS X7, X3, X3
	VADDSS (DI), X3, X3
	VMOVSS X3, (DI)
da_reduce:
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0 // s0+s1
	VCVTSD2SS X0, X0, X0
	MOVSS X0, ret+80(FP)
	RET

// func matVec4AVX2(m, x, out []float32)
//
// out[i] = m row i · x for len(out)/4 quads of rows (the caller passes a
// multiple of 4; m holds len(out) rows of len(x) floats). Each pass
// scores four rows: four YMM accumulators, one per row, each holding
// dotAVX2's 4 float64 lanes, and every 4-float slice of x converted once
// for all four. Per row the FMA operand order, the scalar tail into
// lane 0 and the (s0+s1)+(s2+s3) reduction (VHADDPD twice) are
// dotAVX2's, so each output is Dot(row, x) bit for bit.
TEXT ·matVec4AVX2(SB), NOSPLIT, $0-72
	MOVQ m_base+0(FP), SI
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R8
	SHRQ $2, R8
	JZ   mv4_done
	MOVQ CX, R9
	SHLQ $2, R9 // row stride in bytes
mv4_quad:
	MOVQ SI, R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ DI, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   mv4_tail_setup
	PCALIGN $32
mv4_loop4:
	VCVTPS2PD (AX), Y4 // x, converted once for the four rows
	VCVTPS2PD (R10), Y5
	VFMADD231PD Y4, Y5, Y0
	VCVTPS2PD (R11), Y6
	VFMADD231PD Y4, Y6, Y1
	VCVTPS2PD (R12), Y7
	VFMADD231PD Y4, Y7, Y2
	VCVTPS2PD (R13), Y8
	VFMADD231PD Y4, Y8, Y3
	ADDQ $16, AX
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	DECQ BX
	JNZ  mv4_loop4
mv4_tail_setup:
	// Save each row's [s2 s3] first: the scalar VEX adds below zero the
	// upper half of their YMM register.
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11
	MOVQ CX, BX
	ANDQ $3, BX
	JZ   mv4_reduce
mv4_tail:
	VCVTSS2SD (AX), X4, X4
	VCVTSS2SD (R10), X5, X5
	VMULSD X4, X5, X5
	VADDSD X5, X0, X0 // row 0: s0 += m[i]*x[i]
	VCVTSS2SD (R11), X6, X6
	VMULSD X4, X6, X6
	VADDSD X6, X1, X1
	VCVTSS2SD (R12), X7, X7
	VMULSD X4, X7, X7
	VADDSD X7, X2, X2
	VCVTSS2SD (R13), X5, X5
	VMULSD X4, X5, X5
	VADDSD X5, X3, X3
	ADDQ $4, AX
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ BX
	JNZ  mv4_tail
mv4_reduce:
	VHADDPD X8, X0, X0  // row 0: [s0+s1, s2+s3]
	VHADDPD X9, X1, X1
	VHADDPD X10, X2, X2
	VHADDPD X11, X3, X3
	VHADDPD X1, X0, X0  // [(s0+s1)+(s2+s3) of row 0, of row 1]
	VHADDPD X3, X2, X2  // rows 2 and 3
	VINSERTF128 $1, X2, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DX)
	ADDQ $16, DX
	LEAQ (SI)(R9*4), SI // next quad of rows
	DECQ R8
	JNZ  mv4_quad
mv4_done:
	VZEROUPPER
	RET
