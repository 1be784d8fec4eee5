package continuum

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
)

func TestGridValidation(t *testing.T) {
	if err := (Grid{M: 2, A: 1}).Validate(); err == nil {
		t.Error("want error for M < 3")
	}
	if err := (Grid{M: 10, A: 0}).Validate(); err == nil {
		t.Error("want error for A <= 0")
	}
	g := Grid{M: 10, A: 0.5}
	if g.Length() != 5 {
		t.Errorf("Length = %v", g.Length())
	}
	if g.X(4) != 2 {
		t.Errorf("X(4) = %v", g.X(4))
	}
}

func TestGridBoundaries(t *testing.T) {
	ring := Grid{M: 5, A: 1, Periodic: true}
	if ring.left(0) != 4 || ring.right(4) != 0 {
		t.Error("periodic wrap broken")
	}
	open := Grid{M: 5, A: 1}
	if open.left(0) != 1 || open.right(4) != 3 {
		t.Error("Neumann mirror broken")
	}
}

func TestDiffusivitySign(t *testing.T) {
	g := Grid{M: 16, A: 1}
	sync := Field{Grid: g, Potential: potential.Tanh{}, K: 2}
	if d := sync.Diffusivity(); math.Abs(d-2) > 1e-4 {
		t.Errorf("tanh diffusivity = %v, want k·a²·V'(0) = 2", d)
	}
	desync := Field{Grid: g, Potential: potential.NewDesync(1.5), K: 2}
	if d := desync.Diffusivity(); d >= 0 {
		t.Errorf("desync diffusivity = %v, want negative (anti-diffusion)", d)
	}
}

// TestSolveValidation checks both places a field run is refused: System
// rejects a mismatched initial state and a nil potential, and the
// runtime rejects a non-positive horizon.
func TestSolveValidation(t *testing.T) {
	f := Field{Grid: Grid{M: 8, A: 1}, Potential: potential.Tanh{}, K: 1}
	if _, err := f.System(make([]float64, 4)); err == nil {
		t.Error("want length-mismatch error")
	}
	discard := sim.SinkFunc(func(float64, []float64) {})
	if err := runStream(&f, make([]float64, 8), 0, 10, discard); err == nil {
		t.Error("want tEnd error")
	}
	bad := f
	bad.Potential = nil
	if _, err := bad.System(make([]float64, 8)); err == nil {
		t.Error("want nil-potential error")
	}
}

// solve integrates f from theta0 through the shared runtime and returns
// the recorded rows.
func solve(t *testing.T, f *Field, theta0 []float64, tEnd float64, nSamples int) *sim.Result {
	t.Helper()
	sys, err := f.System(theta0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sys, tEnd, nSamples)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lagField returns ω̄·t − θ(x, t) of the row sampled at t for the
// constant-ω case: the local delay field whose spreading is the
// continuum idle wave.
func lagField(t float64, row []float64, omegaBar float64) []float64 {
	out := make([]float64, len(row))
	for i, th := range row {
		out[i] = omegaBar*t - th
	}
	return out
}

// secondMoment returns the variance of the lag distribution of the row
// sampled at t, treating the (nonnegative) lag as a mass density — for a
// diffusing delay packet it grows as 2Dt, the textbook heat-kernel check.
func secondMoment(g Grid, t float64, row []float64, omegaBar float64) float64 {
	lag := lagField(t, row, omegaBar)
	var mass, mean float64
	for i, v := range lag {
		if v < 0 {
			v = 0
		}
		mass += v
		mean += v * g.X(i)
	}
	if mass <= 0 {
		return 0
	}
	mean /= mass
	var m2 float64
	for i, v := range lag {
		if v < 0 {
			v = 0
		}
		d := g.X(i) - mean
		m2 += v * d * d
	}
	return m2 / mass
}

// TestHeatKernelSpreading verifies the linear PDE against the textbook
// heat kernel: a localized lag packet's second moment grows as 2Dt.
func TestHeatKernelSpreading(t *testing.T) {
	g := Grid{M: 201, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 1, Linear: true}
	d := f.Diffusivity()

	// Initial condition: θ = 0 everywhere except a localized lag bump in
	// the middle (the delayed region runs behind).
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		x := g.X(i) - g.X(g.M/2)
		theta0[i] = -2 * math.Exp(-x*x/(2*4)) // lag packet, var₀ = 4
	}
	res := solve(t, &f, theta0, 20, 5)
	last := len(res.Ts) - 1
	m0 := secondMoment(g, res.Ts[0], res.Ys[0], mathx.TwoPi)
	mEnd := secondMoment(g, res.Ts[last], res.Ys[last], mathx.TwoPi)
	growth := mEnd - m0
	want := 2 * d * 20
	if math.Abs(growth-want)/want > 0.15 {
		t.Errorf("second moment grew %v, want ≈ 2Dt = %v", growth, want)
	}
}

// TestLinearContinuumFlattens is the continuum resynchronization: any
// initial lag profile decays to a flat field under positive diffusivity.
func TestLinearContinuumFlattens(t *testing.T) {
	// The q = 2π/M mode decays at rate D·q²; M = 16 with D = 2 gives
	// rate ≈ 0.31, so 50 time units flatten it completely.
	g := Grid{M: 16, A: 1, Periodic: true}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		theta0[i] = math.Sin(2 * math.Pi * float64(i) / float64(g.M))
	}
	acc := &sim.SpreadAccumulator{KeepTimeline: true}
	if err := runStream(&f, theta0, 50, 11, acc); err != nil {
		t.Fatal(err)
	}
	spread := acc.Timeline
	if spread[0] < 1.9 {
		t.Fatalf("initial spread = %v", spread[0])
	}
	if last := spread[len(spread)-1]; last > 0.01 {
		t.Errorf("final spread = %v, want ≈ 0 (flattened)", last)
	}
}

// TestNonlinearMatchesLinearForSmallGradients checks the Taylor-expansion
// correspondence: for small-amplitude fields both flux forms evolve the
// same way.
func TestNonlinearMatchesLinearForSmallGradients(t *testing.T) {
	g := Grid{M: 48, A: 1, Periodic: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		theta0[i] = 0.01 * math.Sin(2*math.Pi*float64(i)/float64(g.M))
	}
	run := func(linear bool) []float64 {
		f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: linear}
		res := solve(t, &f, theta0, 5, 3)
		return res.Ys[len(res.Ys)-1]
	}
	lin := run(true)
	non := run(false)
	for i := range lin {
		if math.Abs(lin[i]-non[i]) > 1e-5 {
			t.Fatalf("flux forms diverge at %d: %v vs %v", i, lin[i], non[i])
		}
	}
}

// TestAntiDiffusionSelectsGradient is the continuum computational
// wavefront: with the desynchronizing potential the flat state is
// unstable and the nonlinear flux selects a·|θ_x| at the potential's
// stable zero 2σ/3.
func TestAntiDiffusionSelectsGradient(t *testing.T) {
	sigma := 1.5
	pot := potential.NewDesync(sigma)
	g := Grid{M: 32, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: pot, K: 2}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		// Small deterministic seed perturbation.
		theta0[i] = 0.01 * math.Sin(7*float64(i))
	}
	res := solve(t, &f, theta0, 400, 9)
	// Forward differences: the instability grows fastest at the zone
	// boundary (the zigzag state), which a central difference reads as 0.
	th := res.Ys[len(res.Ys)-1]
	want := pot.StableZero()
	for i := 0; i+1 < len(th); i++ {
		if gp := th[i+1] - th[i]; math.Abs(math.Abs(gp)-want) > 0.15 {
			t.Errorf("gap at %d = %v, want ±%v", i, gp, want)
		}
	}
}

// TestDelayPacketDiffusesNotBallistic contrasts the continuum limit with
// the discrete traces: under the linear PDE a delay spreads ~√t.
func TestDelayPacketDiffusesNotBallistic(t *testing.T) {
	g := Grid{M: 161, A: 1, Periodic: false}
	f := Field{Grid: g, Potential: potential.Tanh{}, K: 2, Linear: true}
	theta0 := make([]float64, g.M)
	theta0[g.M/2] = -5 // point lag
	res := solve(t, &f, theta0, 64, 17)
	// Width (sqrt of second moment) at t=16 and t=64 should scale by ≈2
	// (√4), not 4 (ballistic).
	kAt := func(tt float64) int {
		for k, ts := range res.Ts {
			if ts >= tt {
				return k
			}
		}
		return len(res.Ts) - 1
	}
	width := func(k int) float64 { return math.Sqrt(secondMoment(g, res.Ts[k], res.Ys[k], mathx.TwoPi)) }
	w16, w64 := width(kAt(16)), width(kAt(64))
	ratio := w64 / w16
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("width ratio = %v, want ≈ 2 (diffusive √t scaling)", ratio)
	}
}

// TestOmegaFieldInjectsDelay exercises the ω(x, t) hook: a slow region
// builds up lag relative to the rest.
func TestOmegaFieldInjectsDelay(t *testing.T) {
	g := Grid{M: 33, A: 1, Periodic: true}
	f := Field{
		Grid: g, Potential: potential.Tanh{}, K: 0.5,
		Omega: func(x, tt float64) float64 {
			if tt < 5 && math.Abs(x-16) < 2 {
				return mathx.TwoPi * 0.5 // half speed in the middle early on
			}
			return mathx.TwoPi
		},
	}
	res := solve(t, &f, make([]float64, g.M), 10, 11)
	last := len(res.Ts) - 1
	lag := lagField(res.Ts[last], res.Ys[last], mathx.TwoPi)
	if lag[16] <= lag[0] {
		t.Errorf("slow region lag %v not above far-field %v", lag[16], lag[0])
	}
}

// TestValidationRejectsNonFinite is the regression test for the
// input-validation hole: a NaN lattice spacing or a NaN/Inf coupling
// passed every sign check before the fix and produced a silently
// poisoned field (NaN coordinates, NaN flux) instead of an error.
func TestValidationRejectsNonFinite(t *testing.T) {
	if err := (Grid{M: 10, A: math.NaN()}).Validate(); err == nil {
		t.Error("want error for NaN lattice spacing")
	}
	if err := (Grid{M: 10, A: math.Inf(1)}).Validate(); err == nil {
		t.Error("want error for infinite lattice spacing")
	}
	g := Grid{M: 8, A: 1}
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := Field{Grid: g, Potential: potential.Tanh{}, K: k}
		if _, err := f.System(make([]float64, 8)); err == nil {
			t.Errorf("want error for coupling %v", k)
		}
	}
}

// runStream streams f's rows from theta0 into sink through the shared
// runtime.
func runStream(f *Field, theta0 []float64, tEnd float64, nSamples int, sink sim.Sink) error {
	sys, err := f.System(theta0)
	if err != nil {
		return err
	}
	_, err = sim.RunStream(sys, tEnd, nSamples, sink)
	return err
}
