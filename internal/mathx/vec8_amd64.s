//go:build amd64

#include "textflag.h"

// The 8-wide kernels behind vec8.go. Every lane runs the scalar Go
// expression's operations in the same order with VMULPD/VADDPD/VSUBPD/
// VDIVPD (no FMA), so each element is bit-identical to the Go loop.
// The element loop walks AX over [0, R11) in steps of eight; every block
// runs under the lane mask K1, which drops the lanes past the end, and
// masked-off lanes are neither read nor written.

// LANES8 sets K1 to the lanes AX … min(AX+8, R11)−1; the caller has
// checked AX < R11. Clobbers BX, CX.
#define LANES8 \
	MOVQ R11, CX; \
	SUBQ AX, CX; \
	MOVL $8, BX; \
	CMPQ CX, BX; \
	CMOVQGT BX, CX; \
	MOVL $1, BX; \
	SHLL CX, BX; \
	DECL BX; \
	KMOVB BX, K1

// The block pieces of the linear combinations. FIRST8 starts Z0 at
// c[0]*k[0] over the block at AX (jumping to done past the end); each
// TERM8 adds the next term, left to right. The k pointers live in R12,
// R13, R14, R15, R8, R9 and the broadcast c in Z21-Z26; masked-off lanes
// hold 0.
#define FIRST8 \
	CMPQ AX, R11; \
	JGE  done; \
	LANES8; \
	VMULPD.Z (R12)(AX*8), Z21, K1, Z0

#define TERM8(kreg, creg) \
	VMULPD.Z (kreg)(AX*8), creg, K1, Z1; \
	VADDPD Z1, Z0, Z0

// LC_STORE multiplies linComb8's block by h, adds y where K3 allows (all
// lanes, or none for a nil y) and stores it.
#define LC_STORE \
	VMULPD Z20, Z0, Z0; \
	KANDB K3, K1, K2; \
	VADDPD (SI)(AX*8), Z0, K2, Z0; \
	VMOVUPD Z0, K1, (DI)(AX*8); \
	ADDQ $8, AX

// func linComb8(dst, y *float64, n int, h float64, c *float64, k *[]float64, m int)
//
// One loop per term count m = 1 … 6, each with its terms in registers
// (see FIRST8). A nil y clears K3, so the y load never happens
// (masked-off lanes are not read) and Z0 stays h*(…) bit for bit.
TEXT ·linComb8(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), R11
	VBROADCASTSD h+24(FP), Z20
	MOVQ c+32(FP), DX
	MOVQ k+40(FP), R10
	MOVQ m+48(FP), CX
	KXNORB K3, K3, K3
	TESTQ SI, SI
	JNZ  loadterms
	KXORB K3, K3, K3
	MOVQ DI, SI

loadterms:
	XORQ AX, AX
	MOVQ 0(R10), R12
	VBROADCASTSD 0(DX), Z21
	CMPQ CX, $1
	JEQ  lc1
	MOVQ 24(R10), R13
	VBROADCASTSD 8(DX), Z22
	CMPQ CX, $2
	JEQ  lc2
	MOVQ 48(R10), R14
	VBROADCASTSD 16(DX), Z23
	CMPQ CX, $3
	JEQ  lc3
	MOVQ 72(R10), R15
	VBROADCASTSD 24(DX), Z24
	CMPQ CX, $4
	JEQ  lc4
	MOVQ 96(R10), R8
	VBROADCASTSD 32(DX), Z25
	CMPQ CX, $5
	JEQ  lc5
	MOVQ 120(R10), R9
	VBROADCASTSD 40(DX), Z26
	JMP  lc6

lc1:
	FIRST8
	LC_STORE
	JMP  lc1

lc2:
	FIRST8
	TERM8(R13, Z22)
	LC_STORE
	JMP  lc2

lc3:
	FIRST8
	TERM8(R13, Z22)
	TERM8(R14, Z23)
	LC_STORE
	JMP  lc3

lc4:
	FIRST8
	TERM8(R13, Z22)
	TERM8(R14, Z23)
	TERM8(R15, Z24)
	LC_STORE
	JMP  lc4

lc5:
	FIRST8
	TERM8(R13, Z22)
	TERM8(R14, Z23)
	TERM8(R15, Z24)
	TERM8(R8, Z25)
	LC_STORE
	JMP  lc5

lc6:
	FIRST8
	TERM8(R13, Z22)
	TERM8(R14, Z23)
	TERM8(R15, Z24)
	TERM8(R8, Z25)
	TERM8(R9, Z26)
	LC_STORE
	JMP  lc6

done:
	VZEROUPPER
	RET

// func errSumSq8(y, ynew *float64, n int, h, atol, rtol float64, c *[6]float64, k *[6][]float64) float64
//
// Per lane: e = h*(c·k) / (atol + rtol*max(|y|, |ynew|)), where max
// follows math.Max (NaN if either side is NaN). VMAXPD returns its second
// source whenever a NaN is involved, which covers a NaN |ynew|; a NaN |y|
// is blended in afterwards. The squares e*e of the block then join the
// running sum X10 one lane at a time, in element order; masked-off lanes
// add +0, which leaves the sum (never −0) unchanged.
TEXT ·errSumSq8(SB), NOSPLIT, $0-72
	MOVQ y+0(FP), SI
	MOVQ ynew+8(FP), DI
	MOVQ n+16(FP), R11
	VBROADCASTSD h+24(FP), Z20
	VBROADCASTSD atol+32(FP), Z27
	VBROADCASTSD rtol+40(FP), Z28
	MOVQ c+48(FP), DX
	MOVQ k+56(FP), R10
	MOVQ 0(R10), R12
	MOVQ 24(R10), R13
	MOVQ 48(R10), R14
	MOVQ 72(R10), R15
	MOVQ 96(R10), R8
	MOVQ 120(R10), R9
	VBROADCASTSD 0(DX), Z21
	VBROADCASTSD 8(DX), Z22
	VBROADCASTSD 16(DX), Z23
	VBROADCASTSD 24(DX), Z24
	VBROADCASTSD 32(DX), Z25
	VBROADCASTSD 40(DX), Z26
	MOVQ $0x7FFFFFFFFFFFFFFF, BX
	VPBROADCASTQ BX, Z29     // abs mask
	VXORPD X10, X10, X10     // sum = +0
	XORQ AX, AX

block:
	FIRST8
	TERM8(R13, Z22)
	TERM8(R14, Z23)
	TERM8(R15, Z24)
	TERM8(R8, Z25)
	TERM8(R9, Z26)
	VMULPD Z20, Z0, Z0       // h*(c·k)
	VMOVUPD.Z (SI)(AX*8), K1, Z2
	VMOVUPD.Z (DI)(AX*8), K1, Z3
	VANDPD Z29, Z2, Z2       // |y|
	VANDPD Z29, Z3, Z3       // |ynew|
	VMAXPD Z3, Z2, Z4        // |y| > |ynew| ? |y| : |ynew|
	VCMPPD $3, Z2, Z2, K2    // |y| is NaN
	VMOVAPD Z2, K2, Z4
	VMULPD Z28, Z4, Z4       // rtol*max
	VADDPD Z27, Z4, Z4       // sc = atol + rtol*max
	VDIVPD.Z Z4, Z0, K1, Z0  // e = err / sc
	VMULPD.Z Z0, Z0, K1, Z0  // e*e, +0 in masked-off lanes

	VADDSD X0, X10, X10      // lane 0
	VPERMILPD $1, X0, X1
	VADDSD X1, X10, X10      // lane 1
	VEXTRACTF128 $1, Y0, X1
	VADDSD X1, X10, X10      // lane 2
	VPERMILPD $1, X1, X1
	VADDSD X1, X10, X10      // lane 3
	VEXTRACTF64X4 $1, Z0, Y2
	VADDSD X2, X10, X10      // lane 4
	VPERMILPD $1, X2, X1
	VADDSD X1, X10, X10      // lane 5
	VEXTRACTF128 $1, Y2, X1
	VADDSD X1, X10, X10      // lane 6
	VPERMILPD $1, X1, X1
	VADDSD X1, X10, X10      // lane 7

	ADDQ $8, AX
	JMP  block

done:
	VMOVSD X10, ret+64(FP)
	VZEROUPPER
	RET

// func denseFill8(rc *[5][]float64, y, ynew, k1, k7 *float64, n int, h float64)
TEXT ·denseFill8(SB), NOSPLIT, $0-56
	MOVQ rc+0(FP), R9
	MOVQ 0(R9), R12          // rc[0]
	MOVQ 24(R9), R13         // rc[1]
	MOVQ 48(R9), R14         // rc[2]
	MOVQ 72(R9), R15         // rc[3]
	MOVQ y+8(FP), SI
	MOVQ ynew+16(FP), DI
	MOVQ k1+24(FP), R8
	MOVQ k7+32(FP), R10
	MOVQ n+40(FP), R11
	VBROADCASTSD h+48(FP), Z20
	XORQ AX, AX

block:
	CMPQ AX, R11
	JGE  done
	LANES8
	VMOVUPD.Z (SI)(AX*8), K1, Z0  // y
	VMOVUPD.Z (DI)(AX*8), K1, Z1  // ynew
	VMOVUPD.Z (R8)(AX*8), K1, Z2  // k1
	VMOVUPD.Z (R10)(AX*8), K1, Z3 // k7
	VSUBPD Z0, Z1, Z1        // ydiff = ynew − y
	VMULPD Z20, Z2, Z2       // h*k1
	VSUBPD Z1, Z2, Z2        // bspl = h*k1 − ydiff
	VMULPD Z20, Z3, Z3       // h*k7
	VSUBPD Z3, Z1, Z3        // ydiff − h*k7
	VSUBPD Z2, Z3, Z3        // … − bspl
	VMOVUPD Z0, K1, (R12)(AX*8)
	VMOVUPD Z1, K1, (R13)(AX*8)
	VMOVUPD Z2, K1, (R14)(AX*8)
	VMOVUPD Z3, K1, (R15)(AX*8)
	ADDQ $8, AX
	JMP  block

done:
	VZEROUPPER
	RET

// func horner8(dst *float64, rc *[5][]float64, n int, th, th1 float64)
TEXT ·horner8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rc+8(FP), R9
	MOVQ 0(R9), R12          // rc[0]
	MOVQ 24(R9), R13         // rc[1]
	MOVQ 48(R9), R14         // rc[2]
	MOVQ 72(R9), R15         // rc[3]
	MOVQ 96(R9), R10         // rc[4]
	MOVQ n+16(FP), R11
	VBROADCASTSD th+24(FP), Z20
	VBROADCASTSD th1+32(FP), Z21
	XORQ AX, AX

block:
	CMPQ AX, R11
	JGE  done
	LANES8
	VMOVUPD.Z (R10)(AX*8), K1, Z0
	VMULPD Z21, Z0, Z0       // th1*rc4
	VADDPD.Z (R15)(AX*8), Z0, K1, Z0 // rc3 + …
	VMULPD Z20, Z0, Z0       // th*(…)
	VADDPD.Z (R14)(AX*8), Z0, K1, Z0 // rc2 + …
	VMULPD Z21, Z0, Z0       // th1*(…)
	VADDPD.Z (R13)(AX*8), Z0, K1, Z0 // rc1 + …
	VMULPD Z20, Z0, Z0       // th*(…)
	VADDPD.Z (R12)(AX*8), Z0, K1, Z0 // rc0 + …
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  block

done:
	VZEROUPPER
	RET
