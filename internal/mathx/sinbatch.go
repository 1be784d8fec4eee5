package mathx

import "math"

// Batched sine evaluation for the oscillator model's hot path.
//
// SinInto replicates the portable Cephes algorithm of math.Sin (Cody–Waite
// three-part π/4 range reduction plus the classic sin/cos minimax
// polynomials). On amd64 the packed kernels in sinbatch_amd64.s evaluate
// eight lanes (AVX-512) or four lanes (AVX2) per iteration with exactly
// the scalar operation sequence per lane (multiply/add/subtract only, no
// FMA contraction), so results are bit-for-bit identical to math.Sin's
// portable path; elsewhere a straight-line scalar loop with the same
// property runs. Arguments below 2⁻²⁷ in magnitude (±0 and subnormals
// included) return x itself, which is exactly what the polynomial rounds
// to there, without the slow subnormal arithmetic. Arguments outside the
// fast reduction range (|x| ≥ 2²⁹) plus NaN/±Inf fall back to math.Sin
// itself in a patch pass.
//
// SincosInto does the same for math.Sincos: one reduction, both
// polynomials, swapped and signed per octant, in an AVX-512 kernel only.
// Without AVX-512 it is a math.Sincos loop.

// Pi/4 split into three parts for extended-precision modular arithmetic,
// and the polynomial coefficients, from Cephes cmath (Moshier), as used
// by the Go standard library.
const (
	sinPI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	sinPI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	sinPI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	// sinReduceThreshold is the maximum |x| the Cody–Waite reduction
	// handles; beyond it math.Sin's Payne–Hanek path takes over.
	sinReduceThreshold = 1 << 29

	// sinTiny bounds the arguments whose sine is x itself: below it the
	// polynomial's z·zz·p term is under an eighth of an ulp of x, so the
	// final z + z·zz·p rounds back to z = x.
	sinTiny = 0x1p-27
)

var sinCoeff = [...]float64{
	1.58962301576546568060e-10,
	-2.50507477628578072866e-8,
	2.75573136213857245213e-6,
	-1.98412698295895385996e-4,
	8.33333333332211858878e-3,
	-1.66666666666666307295e-1,
}

var cosCoeff = [...]float64{
	-1.13585365213876817300e-11,
	2.08757008419747316778e-9,
	-2.75573141792967388112e-7,
	2.48015872888517045348e-5,
	-1.38888888888730564116e-3,
	4.16666666666665929218e-2,
}

// SinInto writes sin(x[i]) into dst[i] for every i. dst and x must have
// equal length and may alias.
func SinInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mathx: SinInto length mismatch")
	}
	n := len(x)
	i := 0
	clean := true
	if useSin8 && n >= 8 {
		i = n &^ 7
		clean = sinInto8(&dst[0], &x[0], i)
	}
	if useSin4 && n-i >= 4 {
		nv := (n - i) &^ 3
		clean = sinInto4(&dst[i], &x[i], nv) && clean
		i += nv
	}
	needSlow := sinIntoScalar(dst[i:n], x[i:n])
	if !clean || needSlow {
		for i, v := range x {
			if a := math.Abs(v); !(a < sinReduceThreshold) {
				dst[i] = math.Sin(v)
			}
		}
	}
}

// sinIntoScalar is the portable fast path: one straight-line loop, no
// function calls (calls would spill the loop state and stall the
// pipeline). It reports whether any element needs the math.Sin fallback
// (those are left unwritten for the caller's patch pass).
func sinIntoScalar(dst, x []float64) bool {
	dst = dst[:len(x)] // bounds-check elimination hint
	needSlow := false
	for i, v := range x {
		if v < sinTiny && v > -sinTiny { // sin x = x, ±0 included
			dst[i] = v
			continue
		}
		sign := false
		if v < 0 {
			v = -v
			sign = true
		}
		if !(v < sinReduceThreshold) { // also catches NaN and ±Inf
			needSlow = true
			continue
		}
		j := uint64(v * (4 / math.Pi)) // octant of x/(Pi/4)
		y := float64(j)
		if j&1 == 1 { // map zeros to origin
			j++
			y++
		}
		j &= 7
		z := ((v - y*sinPI4A) - y*sinPI4B) - y*sinPI4C
		if j > 3 { // reflect in x axis
			sign = !sign
			j -= 4
		}
		zz := z * z
		var r float64
		if j == 1 || j == 2 {
			r = 1.0 - 0.5*zz + zz*zz*((((((cosCoeff[0]*zz)+cosCoeff[1])*zz+cosCoeff[2])*zz+cosCoeff[3])*zz+cosCoeff[4])*zz+cosCoeff[5])
		} else {
			r = z + z*zz*((((((sinCoeff[0]*zz)+sinCoeff[1])*zz+sinCoeff[2])*zz+sinCoeff[3])*zz+sinCoeff[4])*zz+sinCoeff[5])
		}
		if sign {
			r = -r
		}
		dst[i] = r
	}
	return needSlow
}

// SincosInto writes sin(x[i]) into sin[i] and cos(x[i]) into cos[i] for
// every i, bit for bit math.Sincos. The three slices must have equal
// length. Either output may alias x exactly; sin and cos must not alias
// each other.
func SincosInto(sin, cos, x []float64) {
	if len(sin) != len(x) || len(cos) != len(x) {
		panic("mathx: SincosInto length mismatch")
	}
	if !useSin8 || len(x) == 0 {
		for i, v := range x {
			sin[i], cos[i] = math.Sincos(v)
		}
		return
	}
	if !sincosInto8(&sin[0], &cos[0], &x[0], len(x)) {
		// The skipped elements still hold their argument in an aliased
		// output; every other element holds a value in [−1, 1].
		for i, v := range x {
			if !(math.Abs(v) < sinReduceThreshold) {
				sin[i], cos[i] = math.Sincos(v)
			}
		}
	}
}
