// Package mathx provides small numerical helpers shared across the POM
// repository: clamping, grids, compensated sums and extrema, plus the
// batched sine, tanh and coupling kernels. Everything is
// allocation-conscious and pure.
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

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

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
