package ode

import (
	"math"
	"testing"
)

// decayRHS is a small nonlinear test system that keeps the adaptive
// controller stepping at a roughly constant rate.
func decayRHS(t float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = math.Sin(float64(i+1)*0.1) - 0.3*y[i]
	}
}

// discard is a SampleFunc that drops every row.
func discard(float64, []float64) {}

// solveAllocs returns the allocation count of one Solve over [0, tEnd]
// with nSamples output points.
func solveAllocs(t *testing.T, tEnd float64, nSamples int) float64 {
	t.Helper()
	y0 := make([]float64, 32)
	s := NewDOPRI5(1e-8, 1e-6)
	s.Hmax = 0.25
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Solve(decayRHS, y0, 0, tEnd, SolveOptions{NSamples: nSamples, SampleFunc: discard}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// ddeAllocs is solveAllocs for the delay path: a constant-lag feedback
// system whose history window stays bounded, so retired segments recycle
// through the pool.
func ddeAllocs(t *testing.T, tEnd float64, nSamples int) float64 {
	t.Helper()
	const tau = 0.5
	f := func(t float64, y []float64, past Past, dydt []float64) {
		for i := range y {
			dydt[i] = -0.5*past.Eval(i, t-tau) + 0.1
		}
	}
	y0 := make([]float64, 16)
	s := NewDOPRI5(1e-8, 1e-6)
	s.Hmax = 0.25
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.SolveDDE(f, y0, 0, tEnd, DDEOptions{NSamples: nSamples, SampleFunc: discard, MaxDelay: tau}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestSolveSteadyStateAllocs asserts that accepted DOPRI5 steps cost no
// allocations once the solver scratch is warm: integrating twice as far
// (twice the steps, same sample count) must not allocate more.
func TestSolveSteadyStateAllocs(t *testing.T) {
	base := solveAllocs(t, 50, 64)
	long := solveAllocs(t, 100, 64)
	if long > base {
		t.Fatalf("per-step allocations remain: 50-unit solve %v allocs, 100-unit solve %v allocs",
			base, long)
	}
}

// TestSolveDDESteadyStateAllocs asserts the same for the delay path: with
// a bounded history window, segments recycle through the pool and longer
// integrations allocate nothing extra per step.
func TestSolveDDESteadyStateAllocs(t *testing.T) {
	base := ddeAllocs(t, 50, 64)
	long := ddeAllocs(t, 100, 64)
	if long > base {
		t.Fatalf("per-step allocations remain in DDE path: 50-unit solve %v allocs, 100-unit solve %v allocs",
			base, long)
	}
}

// TestSolveSampleFuncSteadyStateAllocs checks the sample path allocates
// nothing per sample beyond the solver's own step machinery: a no-op sink
// over many samples costs no more allocations than the sample count.
func TestSolveSampleFuncSteadyStateAllocs(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	run := func() {
		if _, err := s.Solve(harmonic, []float64{1, 0}, 0, 50, SolveOptions{
			NSamples:   10001,
			SampleFunc: discard,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the solver buffers
	if allocs := testing.AllocsPerRun(3, run); allocs > 16 {
		t.Errorf("streaming solve allocated %v objects per run, want ~0", allocs)
	}
}
