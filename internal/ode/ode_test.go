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

func TestFixedSolveExpDecay(t *testing.T) {
	for _, tc := range []struct {
		stepper Stepper
		tol     float64
	}{
		{&Euler{}, 2e-2},
		{&Heun{}, 2e-4},
		{&RK4{}, 1e-8},
	} {
		sol, err := FixedSolve(expDecay, tc.stepper, []float64{1}, 0, 2, 1e-3, 100)
		if err != nil {
			t.Fatalf("%s: %v", tc.stepper.Name(), err)
		}
		got := sol.Last()[0]
		want := math.Exp(-2)
		if math.Abs(got-want) > tc.tol {
			t.Errorf("%s: y(2) = %v, want %v ± %v", tc.stepper.Name(), got, want, tc.tol)
		}
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
		return math.Abs(sol.Last()[0] - math.Cos(1))
	}
	e1, e2 := errAt(0.01), errAt(0.005)
	return math.Log2(e1 / e2)
}

func TestConvergenceOrders(t *testing.T) {
	for _, tc := range []struct {
		st   Stepper
		want float64
	}{
		{&Euler{}, 1},
		{&Heun{}, 2},
		{&RK4{}, 4},
	} {
		got := convergenceOrder(t, tc.st)
		if math.Abs(got-tc.want) > 0.25 {
			t.Errorf("%s: observed order %.2f, want %.0f", tc.st.Name(), got, tc.want)
		}
		if tc.st.Order() != int(tc.want) {
			t.Errorf("%s: Order() = %d", tc.st.Name(), tc.st.Order())
		}
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

func TestSolutionComponentAndAt(t *testing.T) {
	sol := &Solution{
		Ts: []float64{0, 1, 2},
		Ys: [][]float64{{0, 10}, {1, 20}, {4, 30}},
	}
	c0 := sol.Component(0)
	if c0[2] != 4 {
		t.Errorf("Component = %v", c0)
	}
	v := sol.At(0.5, nil)
	if v[0] != 0.5 || v[1] != 15 {
		t.Errorf("At(0.5) = %v", v)
	}
	if v := sol.At(-1, nil); v[0] != 0 {
		t.Error("left clamp failed")
	}
	if v := sol.At(5, nil); v[0] != 4 {
		t.Error("right clamp failed")
	}
	var empty Solution
	if empty.At(0, nil) != nil || empty.Last() != nil {
		t.Error("empty solution should return nil")
	}
}

func TestDOPRI5Accuracy(t *testing.T) {
	s := NewDOPRI5(1e-10, 1e-10)
	res, err := s.Solve(harmonic, []float64{1, 0}, 0, 10, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Last()
	if math.Abs(got[0]-math.Cos(10)) > 1e-7 || math.Abs(got[1]+math.Sin(10)) > 1e-7 {
		t.Errorf("y(10) = %v, want (cos10, -sin10)", got)
	}
	if res.Stats.Accepted == 0 || res.Stats.Evals == 0 {
		t.Error("stats not populated")
	}
}

func TestDOPRI5ToleranceControlsError(t *testing.T) {
	run := func(tol float64) (errv float64, steps int) {
		s := NewDOPRI5(tol, tol)
		res, err := s.Solve(harmonic, []float64{1, 0}, 0, 10, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Last()[0] - math.Cos(10)), res.Stats.Accepted
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

func TestDOPRI5SampleTs(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	want := []float64{0, 1, 2, 3, 4, 5}
	res, err := s.Solve(expDecay, []float64{1}, 0, 5, SolveOptions{SampleTs: want})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ts) != len(want) {
		t.Fatalf("got %d samples (%v), want %d", len(res.Ts), res.Ts, len(want))
	}
	for k, ts := range want {
		if math.Abs(res.Ts[k]-ts) > 1e-12 {
			t.Errorf("sample %d at %v, want %v", k, res.Ts[k], ts)
		}
		if math.Abs(res.Ys[k][0]-math.Exp(-ts)) > 1e-7 {
			t.Errorf("y(%v) = %v, want %v", ts, res.Ys[k][0], math.Exp(-ts))
		}
	}
}

func TestDOPRI5DenseOutputAccuracy(t *testing.T) {
	s := NewDOPRI5(1e-9, 1e-9)
	res, err := s.Solve(harmonic, []float64{1, 0}, 0, 5, SolveOptions{KeepDense: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dense) == 0 {
		t.Fatal("no dense segments kept")
	}
	for _, seg := range res.Dense {
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
	s := NewDOPRI5(1e-10, 1e-10)
	res, err := s.Solve(riccati, []float64{-1}, 0, 9, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := -1.0 / 10
	if got := res.Last()[0]; math.Abs(got-want) > 1e-8 {
		t.Errorf("y(9) = %v, want %v", got, want)
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
	res, err := s.Solve(poisonOnce(7, math.NaN()), []float64{1, 2}, 0, 10, SolveOptions{})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "t=0 ") || !strings.Contains(err.Error(), "h=0.01") {
		t.Errorf("error %q does not name t and h", err)
	}
	if res.Stats.Evals >= 100 {
		t.Errorf("%d evaluations before failing, want < 100", res.Stats.Evals)
	}

	dde := func(tt float64, y []float64, past Past, dydt []float64) {
		for i := range y {
			dydt[i] = -past.Eval(i, tt-0.5)
		}
		if tt > 1 {
			dydt[1] = math.NaN()
		}
	}
	res, err = NewDOPRI5(1e-8, 1e-6).SolveDDE(dde, []float64{1, 2}, 0, 10, DDEOptions{MaxDelay: 0.5})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("SolveDDE err = %v, want ErrNonFinite", err)
	}
	if res.Stats.Evals >= 100 {
		t.Errorf("SolveDDE: %d evaluations before failing, want < 100", res.Stats.Evals)
	}
}

// TestDOPRI5InfNormRecovers keeps the Inf handling: an infinite error
// norm is a rejection that shrinks h, and the retry can succeed.
func TestDOPRI5InfNormRecovers(t *testing.T) {
	s := NewDOPRI5(1e-8, 1e-6)
	s.H0 = 0.01
	res, err := s.Solve(poisonOnce(7, math.Inf(1)), []float64{1, 2}, 0, 1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rejected == 0 {
		t.Error("the infinite norm was not rejected")
	}
	if got, want := res.Last()[0], math.Exp(-1); math.Abs(got-want) > 1e-6 {
		t.Errorf("y(1) = %v, want %v", got, want)
	}
}

func TestDOPRI5TimeDependentRHS(t *testing.T) {
	// y' = cos(t), y(0) = 0 → y = sin(t). Verifies t is threaded through
	// the stages correctly (c_i coefficients).
	f := func(tt float64, _, dydt []float64) { dydt[0] = math.Cos(tt) }
	s := NewDOPRI5(1e-10, 1e-10)
	res, err := s.Solve(f, []float64{0}, 0, 7, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Last()[0]; math.Abs(got-math.Sin(7)) > 1e-8 {
		t.Errorf("y(7) = %v, want sin(7) = %v", got, math.Sin(7))
	}
}

func BenchmarkDOPRI5Harmonic(b *testing.B) {
	s := NewDOPRI5(1e-8, 1e-8)
	y0 := []float64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(harmonic, y0, 0, 10, SolveOptions{SampleTs: []float64{10}}); err != nil {
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
