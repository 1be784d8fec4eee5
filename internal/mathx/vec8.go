package mathx

// 8-wide AVX-512 kernels for the stage passes of an explicit Runge–Kutta
// step. Each one performs, per element, exactly the multiply/add/
// subtract/divide sequence of the Go expression its comment spells out,
// with one rounding per operation (no FMA), so every result is bit for
// bit what the scalar Go loop computes. Tails shorter than eight
// elements run under a lane mask; masked-off lanes are neither read nor
// written. The kernels exist only where HasAVX512 reports true; on other
// CPUs they panic, and callers run their own scalar loops instead.

// HasAVX512 reports whether LinComb8, ErrSumSq8, DenseFill8 and Horner8
// run on this CPU (AVX512F and AVX512DQ with the OS saving the ZMM
// state).
func HasAVX512() bool { return useSin8 }

// LinComb8 writes, for every i < len(dst),
//
//	dst[i] = y[i] + h*(((c[0]*k[0][i] + c[1]*k[1][i]) + c[2]*k[2][i]) + …)
//
// evaluated left to right. With y == nil the y[i] + is dropped. It
// panics unless 1 ≤ len(k) ≤ 6, len(c) == len(k), and y (when non-nil)
// and every k[j] hold at least len(dst) elements.
//
//pomvet:allocfree
func LinComb8(dst, y []float64, h float64, c []float64, k ...[]float64) {
	n := len(dst)
	checkVec8(len(k) >= 1 && len(k) <= 6 && len(c) == len(k) && (y == nil || len(y) >= n))
	for _, v := range k {
		checkVec8(len(v) >= n)
	}
	if n == 0 {
		return
	}
	var yp *float64
	if y != nil {
		yp = &y[0]
	}
	linComb8(&dst[0], yp, n, h, &c[0], &k[0], len(k))
}

// ErrSumSq8 returns the sum, accumulated in element order from +0, of
// e_i·e_i over every i < len(y), where
//
//	err := h*(((((c[0]*k[0][i] + c[1]*k[1][i]) + c[2]*k[2][i]) + c[3]*k[3][i]) + c[4]*k[4][i]) + c[5]*k[5][i])
//	e_i := err / (atol + rtol*math.Max(math.Abs(y[i]), math.Abs(ynew[i])))
//
// the squared terms of an RMS error norm (Hairer–Nørsett–Wanner II.4)
// over the six-stage error estimate h·Σ c_j·k_j, which is never stored.
// It panics unless ynew and every k[j] hold at least len(y) elements.
//
//pomvet:allocfree
func ErrSumSq8(y, ynew []float64, h, atol, rtol float64, c *[6]float64, k *[6][]float64) float64 {
	n := len(y)
	checkVec8(len(ynew) >= n)
	for _, v := range k {
		checkVec8(len(v) >= n)
	}
	if n == 0 {
		return 0
	}
	return errSumSq8(&y[0], &ynew[0], n, h, atol, rtol, c, k)
}

// DenseFill8 writes the first four Dormand–Prince dense-output vectors
// of a step from y to ynew, for every i < len(y):
//
//	ydiff := ynew[i] - y[i]
//	bspl := h*k1[i] - ydiff
//	rc[0][i], rc[1][i], rc[2][i] = y[i], ydiff, bspl
//	rc[3][i] = ydiff - h*k7[i] - bspl
//
// rc[4] is left alone. It panics unless ynew, k1, k7 and rc[0..3] hold
// at least len(y) elements.
//
//pomvet:allocfree
func DenseFill8(rc *[5][]float64, y, ynew, k1, k7 []float64, h float64) {
	n := len(y)
	checkVec8(len(ynew) >= n && len(k1) >= n && len(k7) >= n)
	for _, v := range rc[:4] {
		checkVec8(len(v) >= n)
	}
	if n == 0 {
		return
	}
	denseFill8(rc, &y[0], &ynew[0], &k1[0], &k7[0], n, h)
}

// Horner8 evaluates the dense-output polynomial at θ = th, th1 = 1 − θ,
// for every i < len(dst):
//
//	dst[i] = rc[0][i] + th*(rc[1][i]+th1*(rc[2][i]+th*(rc[3][i]+th1*rc[4][i])))
//
// It panics unless every rc[j] holds at least len(dst) elements.
//
//pomvet:allocfree
func Horner8(dst []float64, rc *[5][]float64, th, th1 float64) {
	n := len(dst)
	for _, v := range rc {
		checkVec8(len(v) >= n)
	}
	if n == 0 {
		return
	}
	horner8(&dst[0], rc, n, th, th1)
}

// checkVec8 guards the unchecked assembly: the kernels index raw
// pointers, so the wrappers verify what Go indexing would, and refuse to
// run on a CPU without the AVX-512 kernels.
func checkVec8(ok bool) {
	if !ok || !useSin8 {
		panic("mathx: 8-wide kernel called with bad arguments or without AVX-512")
	}
}
