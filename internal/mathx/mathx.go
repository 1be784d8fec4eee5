// Package mathx provides small numerical helpers shared across the POM
// repository: angle arithmetic, grids, interpolation, and safe floating
// point comparisons. Everything is allocation-conscious and pure.
package mathx

import (
	"errors"
	"math"
)

// TwoPi is 2π, the period of one compute–communicate cycle in phase space.
const TwoPi = 2 * math.Pi

// ErrEmptyInput reports that a slice argument was empty where at least one
// element is required.
var ErrEmptyInput = errors.New("mathx: empty input")

// Sign returns -1, 0 or +1 according to the sign of x. NaN maps to 0.
func Sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// Clamp limits x to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// WrapPi wraps an angle to the half-open interval (-π, π].
func WrapPi(theta float64) float64 {
	w := math.Mod(theta, TwoPi)
	switch {
	case w > math.Pi:
		w -= TwoPi
	case w <= -math.Pi:
		w += TwoPi
	}
	return w
}

// Wrap2Pi wraps an angle to the half-open interval [0, 2π).
func Wrap2Pi(theta float64) float64 {
	w := math.Mod(theta, TwoPi)
	if w < 0 {
		w += TwoPi
	}
	return w
}

// Linspace fills dst with n evenly spaced points from a to b inclusive and
// returns it. If dst is nil or too short a new slice is allocated. n must be
// at least 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	dst := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range dst {
		dst[i] = a + float64(i)*step
	}
	dst[n-1] = b // avoid accumulated rounding at the right edge
	return dst
}

// AlmostEqual reports whether a and b agree to within tol either absolutely
// or relative to the larger magnitude.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Interp1 evaluates the piecewise-linear interpolant through (xs, ys) at x.
// xs must be strictly increasing. Outside the domain the boundary value is
// returned (constant extrapolation).
func Interp1(xs, ys []float64, x float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrEmptyInput
	}
	n := len(xs)
	if x <= xs[0] {
		return ys[0], nil
	}
	if x >= xs[n-1] {
		return ys[n-1], nil
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - xs[lo]) / (xs[hi] - xs[lo])
	return Lerp(ys[lo], ys[hi], t), nil
}

// MaxAbs returns the maximum absolute value in xs, or 0 for empty input.
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// MinMax returns the minimum and maximum of xs. It returns ErrEmptyInput
// for an empty slice.
//
//pomvet:allocfree
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptyInput
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Sum returns the Kahan-compensated sum of xs. Compensated summation keeps
// long accumulations (phase averages over many solver steps) accurate.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Norm2 returns the Euclidean norm of xs with overflow-safe scaling.
func Norm2(xs []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, x := range xs {
		if x == 0 {
			continue
		}
		a := math.Abs(x)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum norm of xs.
func NormInf(xs []float64) float64 { return MaxAbs(xs) }

// Unwrap removes 2π jumps from a phase sequence in place and returns it,
// mirroring numpy.unwrap. The first element is unchanged.
func Unwrap(theta []float64) []float64 {
	if len(theta) < 2 {
		return theta
	}
	offset := 0.0
	prev := theta[0]
	for i := 1; i < len(theta); i++ {
		raw := theta[i]
		d := raw - prev
		if d > math.Pi {
			offset -= TwoPi * math.Ceil((d-math.Pi)/TwoPi)
		} else if d < -math.Pi {
			offset += TwoPi * math.Ceil((-d-math.Pi)/TwoPi)
		}
		prev = raw
		theta[i] = raw + offset
	}
	return theta
}

// Diff fills dst with the first differences of xs (len(xs)-1 values) and
// returns it. A nil dst allocates.
func Diff(dst, xs []float64) []float64 {
	if len(xs) < 2 {
		return dst[:0]
	}
	if cap(dst) < len(xs)-1 {
		dst = make([]float64, len(xs)-1)
	}
	dst = dst[:len(xs)-1]
	for i := 1; i < len(xs); i++ {
		dst[i-1] = xs[i] - xs[i-1]
	}
	return dst
}

// ArgMax returns the index of the largest element of xs, or -1 when empty.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element of xs, or -1 when empty.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
