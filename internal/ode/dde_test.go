package ode

import (
	"math"
	"testing"
)

func TestHistoryPrehistoryAndSegments(t *testing.T) {
	hist := NewHistory(0, func(_ int, tt float64) float64 { return 2 * tt })
	if got := hist.Eval(0, -3); got != -6 {
		t.Errorf("prehistory Eval = %v", got)
	}
	// Integrate y' = 1 and check history interpolation hits the line.
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(_ float64, _, dydt []float64) { dydt[0] = 1 }
	_, err := s.Solve(f, []float64{0}, 0, 2, SolveOptions{
		OnStep: func(seg *DenseSegment) { hist.Push(seg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.segs) == 0 {
		t.Fatal("no segments pushed")
	}
	for _, tt := range []float64{0.1, 0.77, 1.5, 2.0} {
		if got := hist.Eval(0, tt); math.Abs(got-tt) > 1e-8 {
			t.Errorf("Eval(%v) = %v, want %v", tt, got, tt)
		}
	}
	// Extrapolation beyond the last segment continues the line.
	if got := hist.Eval(0, 2.01); math.Abs(got-2.01) > 1e-6 {
		t.Errorf("extrapolated Eval = %v", got)
	}
}

func TestHistoryCompact(t *testing.T) {
	hist := NewHistory(0, nil)
	s := NewDOPRI5(1e-6, 1e-6)
	f := func(_ float64, _, dydt []float64) { dydt[0] = 1 }
	_, err := s.Solve(f, []float64{0}, 0, 10, SolveOptions{
		OnStep: func(seg *DenseSegment) { hist.Push(seg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(hist.segs)
	hist.Compact(9.5)
	if len(hist.segs) >= before && before > 1 {
		t.Errorf("Compact did not drop segments: %d -> %d", before, len(hist.segs))
	}
	// Recent history must still be valid.
	if got := hist.Eval(0, 9.9); math.Abs(got-9.9) > 1e-6 {
		t.Errorf("post-Compact Eval = %v", got)
	}
}

// solveDDETo integrates f over [0, t1] and returns the state at t1.
func solveDDETo(t *testing.T, s *DOPRI5, f DelayFunc, y0 []float64, t1 float64, opt DDEOptions) []float64 {
	t.Helper()
	var out rows
	opt.NSamples, opt.SampleFunc = 2, out.sample
	if _, err := s.SolveDDE(f, y0, 0, t1, opt); err != nil {
		t.Fatal(err)
	}
	return last(&out.Solution)
}

// TestSolveDDELinear integrates y'(t) = -y(t-1) with constant prehistory
// y(t) = 1 for t <= 0. On [0, 1] the exact solution is y = 1 - t; on
// [1, 2] it is y = 1 - t + (t-1)²/2 (method of steps).
func TestSolveDDELinear(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(tt float64, _ []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt-1)
	}
	var out rows
	_, err := s.SolveDDE(f, []float64{1}, 0, 2, DDEOptions{NSamples: 5, SampleFunc: out.sample})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(tt float64) float64 {
		if tt <= 1 {
			return 1 - tt
		}
		return 1 - tt + (tt-1)*(tt-1)/2
	}
	if len(out.Ts) != 5 {
		t.Fatalf("got %d samples, want 5", len(out.Ts))
	}
	for k, tt := range out.Ts {
		if math.Abs(out.Ys[k][0]-exact(tt)) > 1e-6 {
			t.Errorf("y(%v) = %v, want %v", tt, out.Ys[k][0], exact(tt))
		}
	}
}

// TestSolveDDEZeroDelayMatchesODE checks that a DDE with τ = 0 reproduces
// the plain ODE solution (vanishing-delay extrapolation path).
func TestSolveDDEZeroDelayMatchesODE(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-8)
	f := func(tt float64, y []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt) // τ = 0: reads "now" through history
	}
	got := solveDDETo(t, s, f, []float64{1}, 3, DDEOptions{})
	if got, want := got[0], math.Exp(-3); math.Abs(got-want) > 1e-4 {
		t.Errorf("zero-delay DDE y(3) = %v, want %v", got, want)
	}
}

func TestSolveDDEPrehistoryDefault(t *testing.T) {
	// The initial state is held constant for t <= t0.
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(tt float64, _ []float64, past Past, dydt []float64) {
		dydt[0] = past.Eval(0, tt-5) // always reads prehistory on [0,2]
	}
	// y' = 3 constant → y(2) = 3 + 6 = 9.
	if got := solveDDETo(t, s, f, []float64{3}, 2, DDEOptions{})[0]; math.Abs(got-9) > 1e-7 {
		t.Errorf("y(2) = %v, want 9", got)
	}
}

func TestSolveDDEMaxDelayCompaction(t *testing.T) {
	s := NewDOPRI5(1e-6, 1e-6)
	f := func(tt float64, y []float64, past Past, dydt []float64) {
		dydt[0] = -past.Eval(0, tt-0.5)
	}
	// Solution of y' = -y(t-1/2) oscillates with decaying amplitude; it
	// must remain bounded and finite.
	if got := solveDDETo(t, s, f, []float64{1}, 50, DDEOptions{MaxDelay: 0.5})[0]; math.IsNaN(got) || math.Abs(got) > 1 {
		t.Errorf("long DDE run diverged: %v", got)
	}
}

func TestSolveDDEEmptyState(t *testing.T) {
	s := NewDOPRI5(1e-6, 1e-6)
	if _, err := s.SolveDDE(func(float64, []float64, Past, []float64) {}, nil, 0, 1, DDEOptions{}); err == nil {
		t.Error("want error for empty state")
	}
}
