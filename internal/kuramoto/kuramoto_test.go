package kuramoto

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// asymptoticOrder averages r(t) over the final fraction of a run by
// replaying its rows through sim.OrderAccumulator, the metric's one
// implementation: 0 selects its default window, and a negative fraction
// the final sample alone.
func asymptoticOrder(r *sim.Result, finalFraction float64) float64 {
	a := &sim.OrderAccumulator{FinalFraction: finalFraction}
	sim.Replay(a, r.Ts, r.Ys)
	return a.Asymptotic()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Error("want error for N < 2")
	}
	if _, err := New(Config{N: 5, K: -1}); err == nil {
		t.Error("want error for K < 0")
	}
}

func TestDeterministicDraws(t *testing.T) {
	a, _ := New(Config{N: 10, FreqStd: 1, Seed: 3})
	b, _ := New(Config{N: 10, FreqStd: 1, Seed: 3})
	for i := range a.omegas {
		if a.omegas[i] != b.omegas[i] {
			t.Fatal("same seed gave different frequencies")
		}
	}
}

func TestIdenticalFrequenciesSyncForAnyPositiveK(t *testing.T) {
	// σ = 0: all frequencies equal. Any K > 0 must pull spread initial
	// phases into near-complete synchrony.
	m, err := New(Config{N: 30, K: 0.5, FreqMean: 1, FreqStd: 0, Seed: 1, SpreadInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, 200, 201)
	if err != nil {
		t.Fatal(err)
	}
	if r := asymptoticOrder(res, 0.2); r < 0.95 {
		t.Errorf("identical oscillators r∞ = %v, want near 1", r)
	}
}

func TestIncoherenceBelowKc(t *testing.T) {
	m, _ := New(Config{N: 200, K: 0.1, FreqMean: 0, FreqStd: 1, Seed: 2, SpreadInitial: true})
	// K = 0.1 << K_c ≈ 1.6: stays incoherent.
	res, err := sim.Run(m, 60, 121)
	if err != nil {
		t.Fatal(err)
	}
	if r := asymptoticOrder(res, 0.25); r > 0.3 {
		t.Errorf("sub-critical r∞ = %v, want small", r)
	}
}

func TestSynchronizationAboveKc(t *testing.T) {
	m, _ := New(Config{N: 200, K: 4, FreqMean: 0, FreqStd: 1, Seed: 2, SpreadInitial: true})
	// K = 4 ≈ 2.5·K_c: strong partial synchronization.
	res, err := sim.Run(m, 60, 121)
	if err != nil {
		t.Fatal(err)
	}
	if r := asymptoticOrder(res, 0.25); r < 0.7 {
		t.Errorf("super-critical r∞ = %v, want large", r)
	}
}

func TestCriticalCoupling(t *testing.T) {
	m, _ := New(Config{N: 10, FreqStd: 1, Seed: 1})
	want := math.Sqrt(8 / math.Pi)
	if got := m.CriticalCoupling(); math.Abs(got-want) > 1e-12 {
		t.Errorf("K_c = %v, want %v", got, want)
	}
	m0, _ := New(Config{N: 10, FreqStd: 0, Seed: 1})
	if m0.CriticalCoupling() != 0 {
		t.Error("K_c must be 0 for identical frequencies")
	}
}

func TestSweepCouplingMonotoneAcrossTransition(t *testing.T) {
	base := Config{N: 150, FreqMean: 0, FreqStd: 1, Seed: 7, SpreadInitial: true}
	pts, err := SweepCoupling(base, []float64{0.2, 1.6, 4.0}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].R < pts[2].R) {
		t.Errorf("transition not visible: r(0.2)=%v r(4)=%v", pts[0].R, pts[2].R)
	}
	if pts[2].R < 0.6 {
		t.Errorf("strong coupling r = %v, want > 0.6", pts[2].R)
	}
}

func TestPhaseSlipsAtWeakCoupling(t *testing.T) {
	// Well below K_c, drifting oscillators continually slip against the
	// mean phase — the behaviour the POM potentials forbid.
	m, _ := New(Config{N: 50, K: 0.05, FreqMean: 0, FreqStd: 1, Seed: 4, SpreadInitial: true})
	counter := &SlipCounter{}
	if _, err := sim.RunStream(m, 100, 501, counter); err != nil {
		t.Fatal(err)
	}
	if s := counter.Slips(); s == 0 {
		t.Error("weakly coupled Kuramoto should show phase slips")
	}
}

// TestRunErrors checks that the runtime refuses a Kuramoto run over a
// non-positive or NaN horizon before any row reaches the sink.
func TestRunErrors(t *testing.T) {
	m, _ := New(Config{N: 4, FreqStd: 1, Seed: 1})
	for _, tEnd := range []float64{0, -1, math.NaN()} {
		counter := &SlipCounter{}
		if _, err := sim.RunStream(m, tEnd, 10, counter); err == nil {
			t.Errorf("tEnd %v: want an error", tEnd)
		}
		if counter.n != 0 {
			t.Errorf("tEnd %v: the sink saw Begin", tEnd)
		}
	}
}

// TestNewRejectsNonFiniteParameters is the regression test for the
// input-validation hole: before the fix a NaN/Inf coupling or frequency
// parameter sailed through New (NaN fails every sign check) and
// surfaced as solver underflow or silent NaN phases deep inside a sweep.
func TestNewRejectsNonFiniteParameters(t *testing.T) {
	bad := []Config{
		{N: 5, K: math.NaN()},
		{N: 5, K: math.Inf(1)},
		{N: 5, FreqMean: math.NaN()},
		{N: 5, FreqMean: math.Inf(-1)},
		{N: 5, FreqStd: math.NaN()},
		{N: 5, FreqStd: math.Inf(1)},
		{N: 5, FreqStd: -0.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v): want validation error", i, cfg)
		}
	}
}
