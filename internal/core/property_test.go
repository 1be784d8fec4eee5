package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestPropertyMeanPhaseConserved: for a symmetric topology and an odd
// potential, the coupling terms cancel pairwise, so the mean phase grows
// exactly at the natural frequency ω regardless of the configuration:
// d/dt Σθ_i = N·ω. This is the model's conservation law.
func TestPropertyMeanPhaseConserved(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(12)
		tp, err := topology.NextNeighbor(n, true)
		if err != nil {
			return false
		}
		pots := []potential.Potential{
			potential.Tanh{},
			potential.NewDesync(0.5 + 2*rng.Float64()),
			potential.KuramotoSine{},
		}
		pot := pots[rng.Intn(len(pots))]
		init := make([]float64, n)
		for i := range init {
			init[i] = rng.Uniform(-2, 2)
		}
		cfg := Config{
			N:             n,
			TComp:         0.7,
			TComm:         0.3,
			Potential:     pot,
			Topology:      tp,
			Init:          CustomPhases,
			InitialPhases: init,
			Atol:          1e-10,
			Rtol:          1e-9,
		}
		m, err := New(cfg)
		if err != nil {
			return false
		}
		tEnd := 5.0
		res, err := m.Run(tEnd, 6)
		if err != nil {
			return false
		}
		mean0 := mathx.Mean(init)
		meanEnd := mathx.Mean(res.FinalPhases())
		want := mean0 + m.Omega()*tEnd
		if math.Abs(meanEnd-want) > 1e-5 {
			t.Logf("seed %d (%s, n=%d): mean phase %v, want %v",
				seed, pot.Name(), n, meanEnd, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTranslationInvariance: shifting every initial phase by the
// same constant shifts the whole trajectory by that constant (the global
// phase symmetry whose Goldstone mode linstab finds).
func TestPropertyTranslationInvariance(t *testing.T) {
	f := func(seed uint64, rawShift float64) bool {
		shift := math.Mod(rawShift, 10)
		if math.IsNaN(shift) {
			return true
		}
		rng := stats.NewRNG(seed)
		n := 6
		tp, err := topology.NextNeighbor(n, false)
		if err != nil {
			return false
		}
		init := make([]float64, n)
		for i := range init {
			init[i] = rng.Uniform(-1, 1)
		}
		run := func(offset float64) []float64 {
			shifted := make([]float64, n)
			for i := range shifted {
				shifted[i] = init[i] + offset
			}
			cfg := Config{
				N: n, TComp: 0.8, TComm: 0.2,
				Potential:     potential.NewDesync(1.5),
				Topology:      tp,
				Init:          CustomPhases,
				InitialPhases: shifted,
				Atol:          1e-10, Rtol: 1e-9,
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(8, 3)
			if err != nil {
				t.Fatal(err)
			}
			return res.FinalPhases()
		}
		a := run(0)
		b := run(shift)
		for i := range a {
			if math.Abs((b[i]-a[i])-shift) > 1e-5 {
				t.Logf("seed %d: component %d shifted by %v, want %v",
					seed, i, b[i]-a[i], shift)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterminism: identical configurations produce bit-identical
// trajectories, including under both noise channels.
func TestPropertyDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := baseConfig(t, 10)
		cfg.LocalNoise = noiseForDeterminism()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(20, 41)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalPhases()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("component %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPropertySpreadNonNegative: the spread timeline is nonnegative and
// zero only in perfect lockstep.
func TestPropertySpreadNonNegative(t *testing.T) {
	cfg := baseConfig(t, 8)
	cfg.Init = RandomPhases
	cfg.PerturbSeed = 9
	cfg.PerturbAmp = 0.5
	m, _ := New(cfg)
	res, err := m.Run(30, 61)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range spreadTimeline(res) {
		if s < 0 {
			t.Fatalf("negative spread at sample %d: %v", k, s)
		}
	}
}

// noiseForDeterminism builds the composite noise used by the determinism
// property.
func noiseForDeterminism() noise.Local {
	return noise.Sum{
		noise.Delay{Rank: 3, Start: 5, Duration: 1, Extra: 20},
		noise.Jitter{Dist: noise.Gaussian, Amp: 0.05, Refresh: 1, Seed: 77},
	}
}
