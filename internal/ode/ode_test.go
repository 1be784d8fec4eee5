package ode

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// expDecay is y' = -y with solution y(t) = y0·e^{-t}.
func expDecay(_ float64, y, dydt []float64) {
	for i := range y {
		dydt[i] = -y[i]
	}
}

// harmonic is the 2-D oscillator y” = -y written as a first-order system.
func harmonic(_ float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

// last returns the final sampled state of a solution.
func last(s *Solution) []float64 { return s.Ys[len(s.Ys)-1] }

// rows collects the rows a run streams to its SampleFunc.
type rows struct{ Solution }

func (r *rows) sample(t float64, y []float64) {
	r.Ts = append(r.Ts, t)
	r.Ys = append(r.Ys, append([]float64(nil), y...))
}

// solveTo integrates f over [t0, t1] and returns the state at t1 with the
// work statistics.
func solveTo(t *testing.T, s *DOPRI5, f Func, y0 []float64, t0, t1 float64) ([]float64, Stats) {
	t.Helper()
	var out rows
	st, err := s.Solve(f, y0, t0, t1, SolveOptions{NSamples: 2, SampleFunc: out.sample})
	if err != nil {
		t.Fatal(err)
	}
	return last(&out.Solution), st
}

func TestFixedSolveExpDecay(t *testing.T) {
	sol, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 0, 2, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := last(sol)[0], math.Exp(-2); math.Abs(got-want) > 1e-8 {
		t.Errorf("y(2) = %v, want %v ± 1e-8", got, want)
	}
}

// convergenceOrder estimates the observed order of a stepper by halving h.
func convergenceOrder(t *testing.T, st Stepper) float64 {
	t.Helper()
	errAt := func(h float64) float64 {
		sol, err := FixedSolve(harmonic, st, []float64{1, 0}, 0, 1, h, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(last(sol)[0] - math.Cos(1))
	}
	e1, e2 := errAt(0.01), errAt(0.005)
	return math.Log2(e1 / e2)
}

func TestConvergenceOrders(t *testing.T) {
	st := &RK4{}
	if got := convergenceOrder(t, st); math.Abs(got-4) > 0.25 {
		t.Errorf("%s: observed order %.2f, want 4", st.Name(), got)
	}
	if st.Order() != 4 {
		t.Errorf("%s: Order() = %d", st.Name(), st.Order())
	}
}

func TestFixedSolveErrors(t *testing.T) {
	if _, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 0, 1, 0, 1); err == nil {
		t.Error("want error for h = 0")
	}
	if _, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 1, 0, 0.1, 1); err == nil {
		t.Error("want error for t1 < t0")
	}
}

func TestFixedSolveLandsOnT1(t *testing.T) {
	sol, err := FixedSolve(expDecay, &RK4{}, []float64{1}, 0, 1, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if last := sol.Ts[len(sol.Ts)-1]; last != 1 {
		t.Errorf("final time = %v, want exactly 1", last)
	}
}

func TestDOPRI5Accuracy(t *testing.T) {
	got, st := solveTo(t, NewDOPRI5(1e-10, 1e-10), harmonic, []float64{1, 0}, 0, 10)
	if math.Abs(got[0]-math.Cos(10)) > 1e-7 || math.Abs(got[1]+math.Sin(10)) > 1e-7 {
		t.Errorf("y(10) = %v, want (cos10, -sin10)", got)
	}
	if st.Accepted == 0 || st.Evals == 0 {
		t.Error("stats not populated")
	}
}

func TestDOPRI5ToleranceControlsError(t *testing.T) {
	run := func(tol float64) (errv float64, steps int) {
		got, st := solveTo(t, NewDOPRI5(tol, tol), harmonic, []float64{1, 0}, 0, 10)
		return math.Abs(got[0] - math.Cos(10)), st.Accepted
	}
	eLoose, nLoose := run(1e-4)
	eTight, nTight := run(1e-9)
	if eTight >= eLoose {
		t.Errorf("tight tol error %g not below loose %g", eTight, eLoose)
	}
	if nTight <= nLoose {
		t.Errorf("tight tol used %d steps, loose %d — expected more work", nTight, nLoose)
	}
}

// TestDOPRI5SampleTs pins the uniform sample plan: NSamples rows at
// t0 + k·(t1−t0)/(NSamples−1), the first and last exactly t0 and t1, each
// interpolated to the dense-output accuracy.
func TestDOPRI5SampleTs(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	var out rows
	if _, err := s.Solve(expDecay, []float64{1}, 1, 6, SolveOptions{NSamples: 11, SampleFunc: out.sample}); err != nil {
		t.Fatal(err)
	}
	if len(out.Ts) != 11 {
		t.Fatalf("got %d samples (%v), want 11", len(out.Ts), out.Ts)
	}
	for k, ts := range out.Ts {
		if want := 1 + float64(k)*0.5; ts != want {
			t.Errorf("sample %d at %v, want %v", k, ts, want)
		}
		if want := math.Exp(1 - ts); math.Abs(out.Ys[k][0]-want) > 1e-7 {
			t.Errorf("y(%v) = %v, want %v", ts, out.Ys[k][0], want)
		}
	}
	// NSamples 1 is the initial row alone; no SampleFunc samples nothing.
	out = rows{}
	if _, err := s.Solve(expDecay, []float64{1}, 0, 1, SolveOptions{NSamples: 1, SampleFunc: out.sample}); err != nil {
		t.Fatal(err)
	}
	if len(out.Ts) != 1 || out.Ts[0] != 0 || out.Ys[0][0] != 1 {
		t.Errorf("NSamples 1 streamed %v %v, want the t0 row alone", out.Ts, out.Ys)
	}
	if _, err := s.Solve(expDecay, []float64{1}, 0, 1, SolveOptions{NSamples: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestDOPRI5DenseOutputAccuracy(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	var segs []*DenseSegment
	if _, err := s.Solve(harmonic, []float64{1, 0}, 0, 5, SolveOptions{
		OnStep: func(seg *DenseSegment) { segs = append(segs, seg) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no dense segments handed to OnStep")
	}
	for _, seg := range segs {
		for _, th := range []float64{0.1, 0.5, 0.9} {
			tt := seg.T0 + th*seg.H
			v := seg.Eval(tt, nil)
			if math.Abs(v[0]-math.Cos(tt)) > 1e-6 {
				t.Fatalf("dense eval at %v: %v, want %v", tt, v[0], math.Cos(tt))
			}
		}
	}
}

func TestDOPRI5FSALConsistency(t *testing.T) {
	// A stiff-ish nonlinear problem exercises accept/reject sequences; the
	// result must still match the analytic solution of y' = y² with
	// y(0) = -1: y(t) = -1/(1+t).
	riccati := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * y[0] }
	got, _ := solveTo(t, NewDOPRI5(1e-10, 1e-10), riccati, []float64{-1}, 0, 9)
	if want := -1.0 / 10; math.Abs(got[0]-want) > 1e-8 {
		t.Errorf("y(9) = %v, want %v", got[0], want)
	}
}

func TestDOPRI5MaxSteps(t *testing.T) {
	s := NewDOPRI5(1e-12, 1e-12)
	s.MaxSteps = 3
	_, err := s.Solve(harmonic, []float64{1, 0}, 0, 100, SolveOptions{})
	if err == nil {
		t.Fatal("want ErrTooManySteps")
	}
}

// TestDOPRI5ShortIntervalRuns checks that an interval shorter than the
// step-size underflow level of t is integrated, not failed: a step that
// reaches t1 is exempt from the underflow check.
func TestDOPRI5ShortIntervalRuns(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	f := func(_ float64, _, dydt []float64) { dydt[0] = 1 }
	var last float64
	st, err := s.Solve(f, []float64{0}, 1, 1+1e-15, SolveOptions{
		NSamples:   2,
		SampleFunc: func(_ float64, y []float64) { last = y[0] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || last <= 0 {
		t.Errorf("stats %v, y(t1) = %v; want one accepted step that moves y", st, last)
	}
}

// poisonOnce returns a decay right-hand side whose k-th call writes v
// into component 0; every other call is y' = -y.
func poisonOnce(k int, v float64) Func {
	calls := 0
	return func(_ float64, y, dydt []float64) {
		calls++
		expDecay(0, y, dydt)
		if calls == k {
			dydt[0] = v
		}
	}
}

// TestDOPRI5NaNFailsFast pins the NaN guard: a NaN error norm stops the
// run at once with ErrNonFinite, where the controller used to turn h into
// NaN and spin until MaxSteps (60,000,001 evaluations by default) before
// reporting ErrTooManySteps. Call 7 is the FSAL stage of the first step
// (H0 set, so no initial-step probes).
func TestDOPRI5NaNFailsFast(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	s.H0 = 0.01
	st, err := s.Solve(poisonOnce(7, math.NaN()), []float64{1, 2}, 0, 10, SolveOptions{})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "t=0 ") || !strings.Contains(err.Error(), "h=0.01") {
		t.Errorf("error %q does not name t and h", err)
	}
	if st.Evals >= 100 {
		t.Errorf("%d evaluations before failing, want < 100", st.Evals)
	}

	dde := func(tt float64, y []float64, past Past, dydt []float64) {
		for i := range y {
			dydt[i] = -past.Eval(i, tt-0.5)
		}
		if tt > 1 {
			dydt[1] = math.NaN()
		}
	}
	st, err = NewDOPRI5(1e-8, 1e-6).SolveDDE(dde, []float64{1, 2}, 0, 10, DDEOptions{MaxDelay: 0.5})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("SolveDDE err = %v, want ErrNonFinite", err)
	}
	if st.Evals >= 100 {
		t.Errorf("SolveDDE: %d evaluations before failing, want < 100", st.Evals)
	}
}

// TestDOPRI5InfNormRecovers keeps the Inf handling: an infinite error
// norm is a rejection that shrinks h, and the retry can succeed.
func TestDOPRI5InfNormRecovers(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	s.H0 = 0.01
	got, st := solveTo(t, s, poisonOnce(7, math.Inf(1)), []float64{1, 2}, 0, 1)
	if st.Rejected == 0 {
		t.Error("the infinite norm was not rejected")
	}
	if got, want := got[0], math.Exp(-1); math.Abs(got-want) > 1e-6 {
		t.Errorf("y(1) = %v, want %v", got, want)
	}
}

func TestDOPRI5TimeDependentRHS(t *testing.T) {
	// y' = cos(t), y(0) = 0 → y = sin(t). Verifies t is threaded through
	// the stages correctly (c_i coefficients).
	f := func(tt float64, _, dydt []float64) { dydt[0] = math.Cos(tt) }
	got, _ := solveTo(t, NewDOPRI5(1e-10, 1e-10), f, []float64{0}, 0, 7)
	if math.Abs(got[0]-math.Sin(7)) > 1e-8 {
		t.Errorf("y(7) = %v, want sin(7) = %v", got[0], math.Sin(7))
	}
}

func BenchmarkDOPRI5Harmonic(b *testing.B) {
	s := NewDOPRI5(1e-8, 1e-8)
	y0 := []float64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(harmonic, y0, 0, 10, SolveOptions{NSamples: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRK4Harmonic(b *testing.B) {
	st := &RK4{}
	y0 := []float64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FixedSolve(harmonic, st, y0, 0, 10, 1e-3, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}
