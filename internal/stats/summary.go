package stats

import (
	"errors"
	"math"
	"sort"

	"repro/internal/mathx"
)

// ErrInsufficientData reports too few samples for the requested statistic.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std, Var     float64
	Min, Max           float64
	Median, Q1, Q3     float64
	Skewness, Kurtosis float64 // excess kurtosis
}

// Summarize computes descriptive statistics of xs. The input is not
// modified. It returns ErrInsufficientData for an empty sample; Std/Var are
// zero for a single sample.
func Summarize(xs []float64) (Summary, error) {
	n := len(xs)
	if n == 0 {
		return Summary{}, ErrInsufficientData
	}
	s := Summary{N: n}
	s.Mean = mathx.Mean(xs)
	s.Min, s.Max, _ = mathx.MinMax(xs)

	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	if n > 1 {
		s.Var = m2 / float64(n-1)
		s.Std = math.Sqrt(s.Var)
	}
	if m2 > 0 {
		nn := float64(n)
		s.Skewness = (m3 / nn) / math.Pow(m2/nn, 1.5)
		s.Kurtosis = (m4/nn)/math.Pow(m2/nn, 2) - 3
	}

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	return s, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation between order statistics (type-7, the
// numpy default). It panics on an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if n == 1 {
		return sorted[0]
	}
	q = mathx.Clamp(q, 0, 1)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return mathx.Lerp(sorted[lo], sorted[hi], pos-float64(lo))
}

// LinearFit holds the result of an ordinary least squares line fit
// y ≈ Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// StdErrSlope is the standard error of the slope estimate.
	StdErrSlope float64
}

// FitLine performs an ordinary least-squares straight-line fit. It is used
// to estimate idle-wave propagation speed from (arrival time, rank) points.
// At least two distinct x values are required.
func FitLine(xs, ys []float64) (LinearFit, error) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := mathx.Mean(xs), mathx.Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate fit (all x equal)")
	}
	fit := LinearFit{Slope: sxy / sxx}
	fit.Intercept = my - fit.Slope*mx
	var ssRes float64
	for i := 0; i < n; i++ {
		r := ys[i] - (fit.Intercept + fit.Slope*xs[i])
		ssRes += r * r
	}
	if syy > 0 {
		fit.R2 = 1 - ssRes/syy
	} else {
		fit.R2 = 1
	}
	if n > 2 {
		fit.StdErrSlope = math.Sqrt(ssRes / float64(n-2) / sxx)
	}
	return fit, nil
}
