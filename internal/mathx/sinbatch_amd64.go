//go:build amd64

package mathx

import "math"

// useSin4 and useSin8 gate the packed AVX2 and AVX-512 sine kernels on
// what the CPU and OS support. Tests clear them to exercise the narrower
// paths.
var useSin4, useSin8 = probeCPU()

// sinVecTab is the broadcast float64 constant table of the packed
// kernels (each constant repeated across one 32-byte lane group; the
// AVX-512 code broadcasts the first copy). The offsets are hard-coded in
// sinbatch_amd64.s — keep the order in sync.
var sinVecTab [23 * 4]float64

// sinVecTabI32 holds the packed int32 constants for the octant logic,
// 16-byte groups: [1 1 1 1], [7 7 7 7], [3 3 3 3], [2 2 2 2], [4 4 4 4].
var sinVecTabI32 = [20]int32{
	1, 1, 1, 1,
	7, 7, 7, 7,
	3, 3, 3, 3,
	2, 2, 2, 2,
	4, 4, 4, 4,
}

func init() {
	scalars := [23]float64{
		4 / math.Pi,
		sinPI4A, sinPI4B, sinPI4C,
		sinCoeff[0], sinCoeff[1], sinCoeff[2], sinCoeff[3], sinCoeff[4], sinCoeff[5],
		cosCoeff[0], cosCoeff[1], cosCoeff[2], cosCoeff[3], cosCoeff[4], cosCoeff[5],
		0.5,
		1.0,
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), // abs mask
		sinReduceThreshold,
		sinTiny,
		math.Copysign(0, -1), // sign mask
		math.Pi / 2,
	}
	for i, s := range scalars {
		for l := 0; l < 4; l++ {
			sinVecTab[i*4+l] = s
		}
	}
}

// sinInto4 evaluates n (a multiple of 4) sines with the packed AVX2
// kernel, sinInto8 n (a multiple of 8) with the AVX-512 one. Per lane
// they perform exactly the scalar operation sequence (multiply/add/
// subtract, no FMA), so results are bit-identical to the scalar fast
// path. They report true when every lane stayed inside the fast
// reduction range; otherwise the caller must patch the out-of-range
// elements with math.Sin (their dst lanes hold the original argument).
//
//go:noescape
func sinInto4(dst, x *float64, n int) bool

//go:noescape
func sinInto8(dst, x *float64, n int) bool

// sincosInto8 evaluates n sines and cosines with the AVX-512 kernel,
// masking the final partial block. Per lane it performs math.Sincos's
// fast-path operation sequence, so results are bit-identical to
// math.Sincos. It reports true when every lane stayed inside the fast
// reduction range; otherwise the caller must patch the out-of-range
// elements with math.Sincos (both of their output lanes hold the
// original argument).
//
//go:noescape
func sincosInto8(sin, cos, x *float64, n int) bool

// desyncSums8 is the fused AVX-512 kernel behind
// CouplingTable.DesyncSums.
//
//go:noescape
func desyncSums8(dst, y, freq []float64, blockPtr, lanes []int32, lo, hi int, k, w, sigma float64)

// tanhSums8 is the fused AVX-512 kernel behind CouplingTable.TanhSums.
// It finishes the rows of [lo, hi) block by block and stops at the first
// block where a row of [lo, hi) meets a mid-range Δ (0.625 ≤ |Δ| ≤
// tanhSaturate), returning that block's first row; the blocks before it
// are written. It returns hi when every row was written.
//
//go:noescape
func tanhSums8(dst, y, freq []float64, blockPtr, lanes []int32, lo, hi int, k float64) int

// tanhVecTab holds tanhSums8's constants at the offsets it hard-codes:
// P0–P2 (0–16), Q0–Q2 (24–40), the rational branch's bound 0.625 (48)
// and tanhSaturate (56).
var tanhVecTab = [8]float64{tanhP[0], tanhP[1], tanhP[2], tanhQ[0], tanhQ[1], tanhQ[2], 0.625, tanhSaturate}

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the state components the OS
// saves on context switch. Call it only when CPUID reports OSXSAVE.
func xgetbv0() uint32

// probeCPU reports whether the CPU supports, and the OS has enabled the
// register state for, the AVX2 kernel (AVX2 plus XMM/YMM state) and the
// AVX-512 kernels (AVX512F and AVX512DQ plus XMM/YMM/opmask/ZMM state,
// XCR0 bits 1, 2, 5, 6 and 7).
func probeCPU() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0 := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx2Bit, avx512F, avx512DQ = 1 << 5, 1 << 16, 1 << 17
	avx2 = ebx&avx2Bit != 0
	avx512 = ebx&(avx512F|avx512DQ) == avx512F|avx512DQ && xcr0&0xE6 == 0xE6
	return avx2, avx512
}
