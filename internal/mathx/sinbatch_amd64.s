//go:build amd64

#include "textflag.h"

// Constant tables (see sinbatch_amd64.go):
//   sinVecTab    float64×4 groups: 0 M4PI, 32 PI4A, 64 PI4B, 96 PI4C,
//                128..288 sin coeffs S0..S5, 320..480 cos coeffs C0..C5,
//                512 0.5, 544 1.0, 576 absMask, 608 reduceThreshold,
//                640 tiny (2⁻²⁷), 672 signMask, 704 π/2
//   sinVecTabI32 int32×4 groups: 0 [1], 16 [7], 32 [3], 48 [2], 64 [4]

// SIN8 is the 8-wide (AVX-512) Cephes sine: Z10 = sin(Z0) per lane, with
// the scalar fast path's exact operation sequence (VMULPD/VADDPD/VSUBPD
// only, no FMA), so every lane is bit-identical to math.Sin. Tiny lanes
// (|x| < 2⁻²⁷, ±0 included) run the polynomial on 0 and get x blended
// back, so no lane does subnormal arithmetic. The octant j lives in the
// low eight int32 lanes of Z5; after j += j&1 it is even, so bit 2 marks
// the reflected octants and bit 1 the cosine kernel.
//
//   in:  Z0 = x, plus SIN8_SETUP's registers
//   out: Z10 = sin x; K2 = lanes with |x| < 2²⁹ (the rest hold garbage)
//   clobbers Z1-Z11, K3-K5
#define SIN8 \
	VPANDQ Z31, Z0, Z1; \
	VPXORQ Z1, Z0, Z2; \
	VCMPPD.BCST $0x11, 608(R8), Z1, K2; \
	VCMPPD.BCST $0x11, 640(R8), Z1, K3; \
	VPXORQ Z1, Z1, K3, Z1; \
	VMULPD.BCST 0(R8), Z1, Z4; \
	VCVTTPD2DQ Z4, Y5; \
	VPANDD.BCST 0(R9), Z5, Z6; \
	VPADDD Z6, Z5, Z5; \
	VCVTDQ2PD Y5, Z4; \
	VMULPD.BCST 32(R8), Z4, Z6; \
	VSUBPD Z6, Z1, Z7; \
	VMULPD.BCST 64(R8), Z4, Z6; \
	VSUBPD Z6, Z7, Z7; \
	VMULPD.BCST 96(R8), Z4, Z6; \
	VSUBPD Z6, Z7, Z7; \
	VPTESTMD.BCST 64(R9), Z5, K4; \
	VPXORQ Z30, Z2, K4, Z2; \
	VPTESTMD.BCST 48(R9), Z5, K5; \
	VMULPD Z7, Z7, Z8; \
	VMULPD.BCST 128(R8), Z8, Z10; \
	VADDPD.BCST 160(R8), Z10, Z10; \
	VMULPD Z8, Z10, Z10; \
	VADDPD.BCST 192(R8), Z10, Z10; \
	VMULPD Z8, Z10, Z10; \
	VADDPD.BCST 224(R8), Z10, Z10; \
	VMULPD Z8, Z10, Z10; \
	VADDPD.BCST 256(R8), Z10, Z10; \
	VMULPD Z8, Z10, Z10; \
	VADDPD.BCST 288(R8), Z10, Z10; \
	VMULPD Z8, Z7, Z11; \
	VMULPD Z10, Z11, Z10; \
	VADDPD Z7, Z10, Z10; \
	VMULPD.BCST 320(R8), Z8, Z11; \
	VADDPD.BCST 352(R8), Z11, Z11; \
	VMULPD Z8, Z11, Z11; \
	VADDPD.BCST 384(R8), Z11, Z11; \
	VMULPD Z8, Z11, Z11; \
	VADDPD.BCST 416(R8), Z11, Z11; \
	VMULPD Z8, Z11, Z11; \
	VADDPD.BCST 448(R8), Z11, Z11; \
	VMULPD Z8, Z11, Z11; \
	VADDPD.BCST 480(R8), Z11, Z11; \
	VMULPD Z8, Z8, Z6; \
	VMULPD Z11, Z6, Z11; \
	VMULPD.BCST 512(R8), Z8, Z6; \
	VSUBPD Z6, Z29, Z6; \
	VADDPD Z11, Z6, Z11; \
	VBLENDMPD Z11, Z10, K5, Z10; \
	VPXORQ Z2, Z10, Z10; \
	VMOVAPD Z0, K3, Z10

// SIN8_SETUP loads what SIN8 reads: R8/R9 the constant tables, Z31 the
// abs mask, Z30 the sign mask (−0), Z29 1.0.
#define SIN8_SETUP \
	LEAQ ·sinVecTab(SB), R8; \
	LEAQ ·sinVecTabI32(SB), R9; \
	VBROADCASTSD 576(R8), Z31; \
	VBROADCASTSD 672(R8), Z30; \
	VBROADCASTSD 544(R8), Z29

// func sinInto4(dst, x *float64, n int) bool
//
// Packed (4-wide AVX2) Cephes sine: per lane the exact operation sequence
// of the scalar fast path in sinbatch.go — Cody–Waite three-part π/4
// reduction, the sin/cos minimax polynomials, sign/reflection carried as
// XOR masks — using only VMULPD/VADDPD/VSUBPD (no FMA contraction), so
// each lane's result is bit-identical to the scalar code. Lanes with
// |x| ≥ 2²⁹ or NaN/Inf keep their argument for the Go caller to patch
// with math.Sin; their occurrence is accumulated into the boolean result
// ("true" = no such lane).
TEXT ·sinInto4(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·sinVecTab(SB), R8
	LEAQ ·sinVecTabI32(SB), R9

	VMOVUPD 576(R8), Y13     // absMask
	VMOVUPD 608(R8), Y14     // reduce threshold
	VPCMPEQD Y15, Y15, Y15   // okAcc = all ones

	XORQ AX, AX              // element index

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0   // x
	VANDPD  Y13, Y0, Y1      // av = |x|
	VANDNPD Y0, Y13, Y2      // sign = x & ^absMask
	VCMPPD  $0x11, Y14, Y1, Y3 // ok = av < threshold (LT_OQ: NaN -> false)
	VPAND   Y3, Y15, Y15     // okAcc &= ok
	// Tiny lanes (|x| < 2⁻²⁷, ±0 included) return x: they run the
	// polynomial on av = 0 and join the lanes that keep their argument.
	VCMPPD  $0x11, 640(R8), Y1, Y6 // tiny = av < 2⁻²⁷
	VANDNPD Y1, Y6, Y1       // av = 0 where tiny
	VANDNPD Y3, Y6, Y3       // polynomial result only where ok and not tiny

	// Octant: j = int32(trunc(av * 4/Pi)); j += j&1; y = float64(j); j &= 7
	VMULPD  0(R8), Y1, Y4
	VCVTTPD2DQY Y4, X5       // j (4 x int32, truncated)
	VMOVDQU 0(R9), X6        // [1 1 1 1]
	VPAND   X6, X5, X7
	VPADDD  X7, X5, X5       // j += j & 1
	VCVTDQ2PD X5, Y4         // y = float64(j), exact (j < 2^30)
	VMOVDQU 16(R9), X6       // [7 7 7 7]
	VPAND   X6, X5, X5       // j &= 7

	// z = ((av - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD  32(R8), Y4, Y6
	VSUBPD  Y6, Y1, Y7
	VMULPD  64(R8), Y4, Y6
	VSUBPD  Y6, Y7, Y7
	VMULPD  96(R8), Y4, Y6
	VSUBPD  Y6, Y7, Y7       // z

	// Reflection: octants 4..7 flip the sign; j &= 3
	VMOVDQU 32(R9), X6       // [3 3 3 3]
	VPCMPGTD X6, X5, X8      // j > 3
	VPMOVSXDQ X8, Y9
	VANDNPD Y9, Y13, Y10     // sign bit where reflected
	VXORPD  Y10, Y2, Y2      // sign ^= reflection
	VPAND   X6, X5, X5       // j &= 3

	VMULPD  Y7, Y7, Y8       // zz = z*z

	// Sine kernel: rs = z + z*zz*((((((S0*zz)+S1)*zz+S2)*zz+S3)*zz+S4)*zz+S5)
	VMULPD  128(R8), Y8, Y10
	VADDPD  160(R8), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  192(R8), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  224(R8), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  256(R8), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  288(R8), Y10, Y10
	VMULPD  Y8, Y7, Y11      // z*zz
	VMULPD  Y10, Y11, Y10    // (z*zz)*p
	VADDPD  Y7, Y10, Y10     // rs

	// Cosine kernel: rc = 1.0 - 0.5*zz + zz*zz*((((((C0*zz)+C1)*zz+C2)*zz+C3)*zz+C4)*zz+C5)
	VMULPD  320(R8), Y8, Y11
	VADDPD  352(R8), Y11, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  384(R8), Y11, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  416(R8), Y11, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  448(R8), Y11, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  480(R8), Y11, Y11
	VMULPD  Y8, Y8, Y12      // zz*zz
	VMULPD  Y11, Y12, Y11    // (zz*zz)*q
	VMULPD  512(R8), Y8, Y12 // 0.5*zz
	VMOVUPD 544(R8), Y6      // 1.0
	VSUBPD  Y12, Y6, Y12     // 1.0 - 0.5*zz
	VADDPD  Y11, Y12, Y11    // rc

	// Select the cosine kernel for octants 1 and 2, then apply the sign.
	VMOVDQU 0(R9), X6        // [1 1 1 1]
	VPCMPEQD X6, X5, X7      // j == 1
	VMOVDQU 48(R9), X6       // [2 2 2 2]
	VPCMPEQD X6, X5, X4      // j == 2
	VPOR    X4, X7, X7
	VPMOVSXDQ X7, Y9
	VANDPD  Y9, Y11, Y11     // rc where cos
	VANDNPD Y10, Y9, Y10     // rs where sin
	VORPD   Y11, Y10, Y10
	VXORPD  Y2, Y10, Y10
	// Lanes outside the fast range keep the original argument (dst may
	// alias x, and the caller's math.Sin patch pass reads it back); so do
	// tiny lanes, whose sine it is.
	VANDPD  Y3, Y10, Y10     // result where ok
	VANDNPD Y0, Y3, Y6       // original x where not ok
	VORPD   Y6, Y10, Y10
	VMOVUPD Y10, (DI)(AX*8)

	ADDQ $4, AX
	JMP  loop

done:
	VMOVMSKPD Y15, AX        // 4 bits, one per lane of okAcc
	CMPL AX, $0xF
	SETEQ ret+24(FP)
	VZEROUPPER
	RET

// func sinInto8(dst, x *float64, n int) bool
//
// SinInto's 8-wide loop: SIN8 over n (a multiple of 8) elements. Lanes
// with |x| ≥ 2²⁹ or NaN/Inf keep their argument for the caller's math.Sin
// patch pass; the result is true when there were none.
TEXT ·sinInto8(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SIN8_SETUP
	KXNORB K7, K7, K7        // okAcc = all lanes
	XORQ AX, AX

loop8:
	CMPQ AX, CX
	JGE  done8
	VMOVUPD (SI)(AX*8), Z0
	SIN8
	KANDB K2, K7, K7         // okAcc &= ok
	KNOTB K2, K6
	VMOVAPD Z0, K6, Z10      // out-of-range lanes keep x
	VMOVUPD Z10, (DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

done8:
	KMOVB K7, AX
	CMPB AL, $0xFF
	SETEQ ret+24(FP)
	VZEROUPPER
	RET

// func desyncSums8(dst, y []float64, blockPtr, lanes []int32, lo, hi int, w, sigma float64)
//
// The fused Desync coupling kernel (see DesyncTable). Each iteration of
// the block loop covers the eight rows i..i+7; K6 masks the lanes whose
// rows lie in [lo, hi) for the y[i] load and the dst store, so only
// dst[lo:hi] is written. Each step of a block gathers one partner per
// row, maps Δ = y[j] − y[i] to the sine argument (w·Δ inside the horizon,
// ∓π/2 beyond it, +π/2 for NaN), runs SIN8 and subtracts the sine from
// the row's sum. The arguments stay within ±3π/2, so SIN8's out-of-range
// mask is not needed. Z13 accumulates in CSR order: rows with partners
// start from −0, and −0 − s is exactly −s, the scalar first term.
TEXT ·desyncSums8(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	MOVQ blockPtr_base+48(FP), R10
	MOVQ lanes_base+72(FP), R11
	MOVQ lo+96(FP), R12
	MOVQ hi+104(FP), R13
	VBROADCASTSD w+112(FP), Z28
	VBROADCASTSD sigma+120(FP), Z27
	SIN8_SETUP
	VBROADCASTSD 704(R8), Z26 // π/2
	VPXORQ  Z30, Z26, Z25    // −π/2
	VPXORQ  Z24, Z24, Z24    // 0
	MOVQ R12, BX
	ANDQ $~7, BX             // first row of lo's block

block:
	CMPQ BX, R13
	JGE  done
	MOVL $0xFF, DX           // K6 = lanes with lo <= i+l < hi
	MOVQ R12, CX
	SUBQ BX, CX
	JLE  lodone
	SHLL CX, DX
lodone:
	MOVQ R13, CX
	SUBQ BX, CX
	CMPQ CX, $8
	JGE  hidone
	MOVL $1, R14
	SHLL CX, R14
	DECL R14
	ANDL R14, DX
hidone:
	KMOVB DX, K6
	VMOVUPD.Z (SI)(BX*8), K6, Z12 // y[i..i+7]

	MOVQ BX, CX
	SHRQ $3, CX
	MOVLQSX (R10)(CX*4), AX
	MOVLQSX 4(R10)(CX*4), DX
	SHLQ $5, AX              // byte offsets of the block's steps
	SHLQ $5, DX
	VPXORQ Z13, Z13, Z13     // rows without partners sum to +0
	CMPQ AX, DX
	JGE  store
	VMOVDQU (R11)(AX*1), Y11
	VPMOVD2M Z11, K1
	KNOTB K1, K1
	VMOVAPD Z30, K1, Z13     // rows with partners start from −0

step:
	VMOVDQU (R11)(AX*1), Y11 // one partner column per row
	VPMOVD2M Z11, K1         // −1 pads rows past their degree
	KNOTB K1, K1
	KMOVB K1, K7             // the gather clears its mask
	VPXORQ Z3, Z3, Z3
	VGATHERDPD (SI)(Y11*8), K7, Z3
	VSUBPD  Z12, Z3, Z3      // Δ = y[j] − y[i]
	VPANDQ  Z31, Z3, Z4
	VCMPPD  $0x11, Z27, Z4, K3 // |Δ| < σ
	VCMPPD  $0x1e, Z24, Z3, K4 // Δ > 0
	VBLENDMPD Z25, Z26, K4, Z0 // beyond the horizon: ∓π/2
	VMULPD  Z28, Z3, K3, Z0  // inside it: w·Δ
	SIN8
	VSUBPD  Z10, Z13, K1, Z13 // s −= sin
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  step

store:
	VMOVUPD Z13, K6, (DI)(BX*8)
	ADDQ $8, BX
	JMP  block

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
