package ode

import (
	"math"
	"strings"
	"testing"
)

// A negative NSamples is always a caller bug, never a way to spell "no
// samples"; it fails fast with a clear message instead of integrating.

func decayRHS1(_ float64, y, dydt []float64) { dydt[0] = -y[0] }

func delayRHS1(_ float64, y []float64, past Past, dydt []float64) {
	dydt[0] = -past.Eval(0, 0)
}

func TestSolveRejectsNegativeNSamples(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	_, err := s.Solve(decayRHS1, []float64{1}, 0, 1, SolveOptions{
		NSamples: -3, SampleFunc: func(float64, []float64) {},
	})
	if err == nil || !strings.Contains(err.Error(), "NSamples") {
		t.Fatalf("err = %v, want a negative-NSamples error", err)
	}
	// Rejected even without a SampleFunc.
	if _, err := s.Solve(decayRHS1, []float64{1}, 0, 1, SolveOptions{NSamples: -1}); err == nil {
		t.Fatal("negative NSamples without a SampleFunc accepted")
	}
}

// TestSolveRejectsEmptyInterval pins the interval checks: rows beyond
// the initial one need t1 > t0, and a NaN end fails instead of returning
// the initial row alone.
func TestSolveRejectsEmptyInterval(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	sink := func(float64, []float64) {}
	for _, tc := range []struct {
		t1       float64
		nSamples int
	}{
		{0, 2}, {-1, 0}, {math.NaN(), 0}, {math.NaN(), 2},
	} {
		if _, err := s.Solve(decayRHS1, []float64{1}, 0, tc.t1, SolveOptions{NSamples: tc.nSamples, SampleFunc: sink}); err == nil {
			t.Errorf("t1 = %v with %d samples accepted", tc.t1, tc.nSamples)
		}
	}
	var out rows
	if _, err := s.Solve(decayRHS1, []float64{1}, 0, 0, SolveOptions{NSamples: 1, SampleFunc: out.sample}); err != nil || len(out.Ts) != 1 {
		t.Errorf("t1 = t0 with 1 sample: err %v, %d rows, want the t0 row", err, len(out.Ts))
	}
}

// TestSolveDDEValidatesPlans checks the DDE driver inherits the same
// validation (it delegates to Solve).
func TestSolveDDEValidatesPlans(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	if _, err := s.SolveDDE(delayRHS1, []float64{1}, 0, 1, DDEOptions{NSamples: -1}); err == nil {
		t.Error("negative NSamples accepted by SolveDDE")
	}
}

// TestSolveAcceptsBoundarySamples pins the extremes of the uniform plan:
// the first row is the initial state at exactly t0 and the last row sits
// at exactly t1, also when t0 ≠ 0 makes t0 + k·step round.
func TestSolveAcceptsBoundarySamples(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	var out rows
	if _, err := s.Solve(decayRHS1, []float64{1}, 0.1, 0.7, SolveOptions{NSamples: 7, SampleFunc: out.sample}); err != nil {
		t.Fatal(err)
	}
	if len(out.Ts) != 7 || out.Ts[0] != 0.1 || out.Ts[6] != 0.7 || out.Ys[0][0] != 1 {
		t.Fatalf("Ts = %v, Ys = %v", out.Ts, out.Ys)
	}
}
