package mathx

import "math"

// Batched hyperbolic tangent: potential.Tanh's EvalInto, and so the tanh
// of the portable coupling pass. On AVX-512 CPUs the fused pass
// (CouplingTable.TanhSums) evaluates the same branches in registers and
// calls math.Tanh for the mid-range.
//
// TanhInto replicates the portable Cephes algorithm of math.Tanh (the
// Cody–Waite rational x + x³·P(x²)/Q(x²) for |x| < 0.625, saturation to
// ±1 beyond log(2¹²⁷)/2) as one straight-line loop with no function
// calls, so results are bit-for-bit identical to per-element math.Tanh.
// The |x| < 0.625 branch — the near-lockstep phase differences that
// dominate synchronizing runs — and the saturated tail are evaluated
// inline; only the mid-range exponential branch (0.625 ≤ |x| ≤ 44) falls
// back to math.Tanh itself, called in place (not in a deferred patch
// pass — see TanhInto for why aliasing rules that out here).

// Rational coefficients from Cephes cmath (Moshier), as used by the Go
// standard library.
var tanhP = [...]float64{
	-9.64399179425052238628e-1,
	-9.92877231001918586564e1,
	-1.61468768441708447952e3,
}

var tanhQ = [...]float64{
	1.12811678491632931402e2,
	2.23548839060100448583e3,
	4.84406305325125486048e3,
}

// tanhSaturate is log(2¹²⁷)/2: beyond it tanh is ±1 to double precision
// (math.Tanh's MAXLOG/2 cutoff).
const tanhSaturate = 8.8029691931113054295988e+01 / 2

// TanhInto writes tanh(x[i]) into dst[i] for every i. dst and x must have
// equal length and may alias (in-place evaluation is legal). The
// mid-range exponential branch calls math.Tanh in place rather than in a
// deferred patch pass: under aliasing the fast branches overwrite their
// inputs with values that themselves land in [0.625, 1], so a re-scan
// could not tell outputs from unprocessed arguments.
func TanhInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mathx: TanhInto length mismatch")
	}
	dst = dst[:len(x)] // bounds-check elimination hint
	for i, v := range x {
		z := math.Abs(v)
		switch {
		case z > tanhSaturate: // also ±Inf
			if v < 0 {
				dst[i] = -1
			} else {
				dst[i] = 1
			}
		case z >= 0.625: // mid-range: 1 − 2/(e²ᶻ+1) needs Exp
			dst[i] = math.Tanh(v)
		default: // covers NaN (both range checks fail; the rational is NaN)
			if v == 0 {
				dst[i] = v // preserve ±0 exactly
				continue
			}
			s := v * v
			dst[i] = v + v*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
		}
	}
}
