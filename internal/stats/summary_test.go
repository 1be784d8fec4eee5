package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%v", s.N, s.Mean)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("want error for empty input")
	}
	s, err := Summarize([]float64{3})
	if err != nil || s.Std != 0 || s.Mean != 3 {
		t.Errorf("single sample: %+v err=%v", s, err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			// Bound magnitudes so interpolation between order statistics
			// cannot overflow — physical quantities here are O(1..1e6).
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e300 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if fit.StdErrSlope > 1e-9 {
		t.Errorf("StdErrSlope = %v, want ~0", fit.StdErrSlope)
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := NewRNG(41)
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / 10
		ys[i] = -3*xs[i] + 7 + r.NormalMS(0, 0.5)
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+3) > 0.05 {
		t.Errorf("Slope = %v, want ≈ -3", fit.Slope)
	}
	if math.Abs(fit.Intercept-7) > 0.5 {
		t.Errorf("Intercept = %v, want ≈ 7", fit.Intercept)
	}
	if fit.R2 < 0.95 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("want error for single point")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("want error for vertical line")
	}
}
