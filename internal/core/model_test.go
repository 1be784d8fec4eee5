package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/topology"
)

// baseConfig returns a small scalable-program configuration used by many
// tests: 16 oscillators, ±1 ring, tanh potential, one-second period.
func baseConfig(t *testing.T, n int) Config {
	t.Helper()
	tp, err := topology.NextNeighbor(n, true)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N:         n,
		TComp:     0.8,
		TComm:     0.2,
		Potential: potential.Tanh{},
		Topology:  tp,
	}
}

func TestNewValidation(t *testing.T) {
	good := baseConfig(t, 8)
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.N = 1
	if _, err := New(bad); err == nil {
		t.Error("want error for N < 2")
	}
	bad = good
	bad.TComp, bad.TComm = 0, 0
	if _, err := New(bad); err == nil {
		t.Error("want error for zero period")
	}
	bad = good
	bad.Potential = nil
	if _, err := New(bad); err == nil {
		t.Error("want error for nil potential")
	}
	bad = good
	bad.Topology = nil
	if _, err := New(bad); err == nil {
		t.Error("want error for nil topology")
	}
	bad = good
	bad.N = 12 // topology still has 8
	if _, err := New(bad); err == nil {
		t.Error("want error for topology size mismatch")
	}
	bad = good
	bad.Init = CustomPhases
	bad.InitialPhases = []float64{1, 2}
	if _, err := New(bad); err == nil {
		t.Error("want error for wrong InitialPhases length")
	}
}

func TestDerivedQuantities(t *testing.T) {
	cfg := baseConfig(t, 10)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.period != 1 {
		t.Errorf("period = %v", m.period)
	}
	if math.Abs(m.Omega()-2*math.Pi) > 1e-12 {
		t.Errorf("Omega = %v", m.Omega())
	}
	// v_p = βκ/period = 1·2/1 = 2 for eager, ±1, separate waits.
	if m.Vp() != 2 {
		t.Errorf("Vp = %v, want 2", m.Vp())
	}
	// Default gain N → effective coupling = v_p.
	if m.Coupling() != 2 {
		t.Errorf("Coupling = %v, want 2", m.Coupling())
	}
	cfg.Gain = 1
	m2, _ := New(cfg)
	if got := m2.Coupling(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("literal Eq.2 coupling = %v, want 0.2", got)
	}
	cfg.CouplingOverride = 7
	m3, _ := New(cfg)
	if m3.Vp() != 7 {
		t.Errorf("override Vp = %v", m3.Vp())
	}
}

func TestFreeOscillatorsAdvanceAtOmega(t *testing.T) {
	// Zero coupling → each phase grows exactly linearly at ω.
	cfg := baseConfig(t, 6)
	cfg.CouplingOverride = 1e-300 // effectively zero but valid
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range res.Ts {
		for i, th := range res.Theta[k] {
			want := m.Omega() * tt
			if math.Abs(th-want) > 1e-5 {
				t.Fatalf("free oscillator %d at t=%v: θ=%v, want %v", i, tt, th, want)
			}
		}
	}
}

func TestSynchronizedStateIsInvariantUnderTanh(t *testing.T) {
	// Lockstep is a fixed point of the coupled dynamics for odd
	// potentials: identical phases stay identical.
	cfg := baseConfig(t, 12)
	m, _ := New(cfg)
	res, err := m.Run(10, 21)
	if err != nil {
		t.Fatal(err)
	}
	final := res.FinalPhases()
	for i := 1; i < len(final); i++ {
		if math.Abs(final[i]-final[0]) > 1e-6 {
			t.Fatalf("lockstep broke under tanh without noise: %v", final)
		}
	}
}

func TestResyncAfterPerturbationTanh(t *testing.T) {
	// A perturbed scalable system must snap back into sync (§5.2.1).
	cfg := baseConfig(t, 16)
	cfg.Init = CustomPhases
	cfg.InitialPhases = make([]float64, 16)
	cfg.InitialPhases[5] = -2.5 // rank 5 starts behind (delayed)
	m, _ := New(cfg)
	res, err := m.Run(40, 201)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := resyncTime(res, 0.05)
	if err != nil {
		t.Fatalf("system did not resynchronize: %v", err)
	}
	if rt <= 0 || rt >= 40 {
		t.Errorf("resync time = %v", rt)
	}
	spread := spreadTimeline(res)
	if spread[0] < 2 {
		t.Errorf("initial spread = %v, want ≈ 2.5", spread[0])
	}
	if last := spread[len(spread)-1]; last > 0.05 {
		t.Errorf("final spread = %v, want < 0.05", last)
	}
}

func TestDesyncFormsWavefront(t *testing.T) {
	// A bottlenecked system with a slight disturbance must develop a
	// computational wavefront: adjacent gaps at the potential's stable
	// zero 2σ/3 (§5.2.2). Open chain so the tilted state is admissible.
	sigma := 1.5
	n := 12
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:           n,
		TComp:       0.8,
		TComm:       0.2,
		Potential:   potential.NewDesync(sigma),
		Topology:    tp,
		Init:        RandomPhases,
		PerturbSeed: 3,
		PerturbAmp:  0.05,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(300, 601)
	if err != nil {
		t.Fatal(err)
	}
	gaps := asymptoticGaps(res, 0.1)
	want := 2 * sigma / 3
	for i, g := range gaps {
		if math.Abs(math.Abs(g)-want) > 0.12 {
			t.Errorf("gap %d = %v, want ±%v (wavefront)", i, g, want)
		}
	}
	if !frequencyLocked(res, 0.2, 1e-3) {
		t.Error("wavefront state must be frequency-locked")
	}
}

func TestDesyncLockstepUnstable(t *testing.T) {
	// Starting *exactly* synchronized with a tiny perturbation, the
	// desynchronizing potential must blow the disturbance up rather than
	// damp it (§5.2.2: "any slight disturbance blows up").
	n := 10
	tp, _ := topology.NextNeighbor(n, false)
	cfg := Config{
		N:           n,
		TComp:       1,
		TComm:       0,
		Potential:   potential.NewDesync(2),
		Topology:    tp,
		Init:        RandomPhases,
		PerturbSeed: 11,
		PerturbAmp:  0.01,
	}
	m, _ := New(cfg)
	res, err := m.Run(200, 401)
	if err != nil {
		t.Fatal(err)
	}
	spread := spreadTimeline(res)
	if spread[len(spread)-1] < 10*spread[0] {
		t.Errorf("perturbation did not grow: initial %v, final %v",
			spread[0], spread[len(spread)-1])
	}
}

func TestDesynchronizedInitHoldsSteady(t *testing.T) {
	// Starting in the developed wavefront, the system stays there.
	n := 8
	sigma := 1.2
	tp, _ := topology.NextNeighbor(n, false)
	cfg := Config{
		N:         n,
		TComp:     1,
		TComm:     0,
		Potential: potential.NewDesync(sigma),
		Topology:  tp,
		Init:      Desynchronized,
	}
	m, _ := New(cfg)
	res, err := m.Run(50, 101)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * sigma / 3
	for _, g := range asymptoticGaps(res, 0.2) {
		if math.Abs(g-want) > 0.05 {
			t.Errorf("gap drifted from wavefront: %v, want %v", g, want)
		}
	}
}

func TestOneOffDelayLaunchesIdleWave(t *testing.T) {
	// The paper's Fig. 2 core phenomenon: a one-off delay at rank 5
	// ripples outward through next-neighbor dependencies.
	n := 24
	cfg := baseConfig(t, n)
	cfg.LocalNoise = noise.Delay{Rank: 5, Start: 5, Duration: 2, Extra: 50}
	m, _ := New(cfg)
	res, err := m.Run(60, 601)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := measureWave(res, 5, 5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if wf.Reached < n/2 {
		t.Errorf("wave reached only %d of %d ranks", wf.Reached, n)
	}
	if wf.Speed <= 0 {
		t.Errorf("wave speed = %v, want > 0", wf.Speed)
	}
	if wf.R2 < 0.6 {
		t.Errorf("wave front fit R2 = %v, want a recognizable front", wf.R2)
	}
	// Neighbors must be hit before distant ranks.
	t6, t12 := wf.ArrivalTime[6], wf.ArrivalTime[17]
	if !math.IsNaN(t6) && !math.IsNaN(t12) && t6 >= t12 {
		t.Errorf("arrival not ordered: rank6 %v, rank17 %v", t6, t12)
	}
	// And the system must eventually resynchronize (scalable program).
	if _, err := resyncTime(res, 0.1); err != nil {
		t.Errorf("no resync after idle wave: %v", err)
	}
}

func TestWaveSpeedGrowsWithCoupling(t *testing.T) {
	// §5.1.1: the larger βκ, the faster the wave.
	speed := func(couple float64) float64 {
		cfg := baseConfig(t, 24)
		cfg.CouplingOverride = couple
		cfg.LocalNoise = noise.Delay{Rank: 12, Start: 5, Duration: 2, Extra: 50}
		m, _ := New(cfg)
		res, err := m.Run(80, 801)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := measureWave(res, 12, 5, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		return wf.SpeedRanksPerPeriod
	}
	s1 := speed(1)
	s4 := speed(4)
	if s4 <= s1 {
		t.Errorf("speed(βκ=4) = %v not above speed(βκ=1) = %v", s4, s1)
	}
}

func TestNormalizedPhasesLaggerBaseline(t *testing.T) {
	cfg := baseConfig(t, 8)
	cfg.Init = CustomPhases
	cfg.InitialPhases = []float64{0, 0, -1, 0, 0, 0, 0, 0}
	m, _ := New(cfg)
	res, err := m.Run(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.NormalizedPhases() {
		minv := row[0]
		for _, v := range row {
			if v < minv {
				minv = v
			}
		}
		if math.Abs(minv) > 1e-12 {
			t.Fatalf("lagger baseline not zero: %v", row)
		}
		for _, v := range row {
			if v < 0 {
				t.Fatalf("normalized phase below lagger: %v", row)
			}
		}
	}
}

func TestInteractionNoiseDDEPath(t *testing.T) {
	// With τ > 0 the DDE path runs; dynamics stay bounded and sync still
	// occurs for tanh coupling with a small constant lag.
	cfg := baseConfig(t, 10)
	cfg.Init = RandomPhases
	cfg.PerturbSeed = 5
	cfg.PerturbAmp = 0.3
	cfg.InteractionNoise = noise.ConstantLag{Lag: 0.05}
	m, _ := New(cfg)
	res, err := m.Run(30, 151)
	if err != nil {
		t.Fatal(err)
	}
	if s := spreadTimeline(res); s[len(s)-1] > 0.1 {
		t.Errorf("delayed-coupling system failed to sync: spread %v", s[len(s)-1])
	}
}

func TestLocalNoiseJitterKeepsSystemBounded(t *testing.T) {
	cfg := baseConfig(t, 12)
	cfg.LocalNoise = noise.Jitter{Dist: noise.Gaussian, Amp: 0.05, Refresh: 1, Seed: 8}
	m, _ := New(cfg)
	res, err := m.Run(50, 101)
	if err != nil {
		t.Fatal(err)
	}
	// Under small noise, the tanh coupling keeps the spread small.
	if s := asymptoticSpread(res, 0.3); s > 1 {
		t.Errorf("noisy spread = %v, want < 1", s)
	}
}

func TestRunErrors(t *testing.T) {
	m, _ := New(baseConfig(t, 4))
	for _, tEnd := range []float64{0, -1, math.NaN()} {
		if _, err := m.Run(tEnd, 10); err == nil {
			t.Errorf("tEnd %v: want an error", tEnd)
		} else if !strings.HasPrefix(err.Error(), "core: ") {
			t.Errorf("tEnd %v: error %q lacks the core: prefix", tEnd, err)
		}
	}
}

func TestFrequencyTimeline(t *testing.T) {
	cfg := baseConfig(t, 4)
	m, _ := New(cfg)
	res, err := m.Run(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	ft := res.FrequencyTimeline()
	if len(ft) != 8 {
		t.Fatalf("frequency rows = %d", len(ft))
	}
	for _, row := range ft {
		for _, f := range row {
			if math.Abs(f-2*math.Pi) > 1e-3 {
				t.Fatalf("undisturbed frequency %v, want 2π", f)
			}
		}
	}
}
