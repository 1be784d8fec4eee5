package kuramoto

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestSlipCounterMatchesRows pins the streaming slip counter bitwise
// against the trajectory-walking CountSlipsRows oracle over the rows of a
// subcritical Kuramoto run where drifting oscillators actually slip.
func TestSlipCounterMatchesRows(t *testing.T) {
	cfg := Config{N: 10, K: 0.4, FreqMean: 0, FreqStd: 1, Seed: 11, SpreadInitial: true}
	const tEnd, nSamples = 60.0, 301

	mMat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(mMat, tEnd, nSamples)
	if err != nil {
		t.Fatal(err)
	}

	mStr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &SlipCounter{}
	if _, err := sim.RunStream(mStr, tEnd, nSamples, counter); err != nil {
		t.Fatal(err)
	}

	want := CountSlipsRows(res.Ys)
	if want == 0 {
		t.Fatal("test run produced no slips; pick stronger drift parameters")
	}
	if counter.Slips() != want {
		t.Fatalf("streamed slips = %d, materialized = %d", counter.Slips(), want)
	}

	// Drift rates: far below K_c most oscillators drift; the rates must
	// be finite and the drifting count consistent with them.
	rates := counter.DriftRates()
	if len(rates) != cfg.N {
		t.Fatalf("DriftRates length %d, want %d", len(rates), cfg.N)
	}
	drifting := 0
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("non-finite drift rate %v", r)
		}
		if math.Abs(r) > 0.05 {
			drifting++
		}
	}
	if counter.Drifting(0.05) != drifting {
		t.Fatalf("Drifting(0.05) = %d, recount = %d", counter.Drifting(0.05), drifting)
	}
	if drifting == 0 {
		t.Error("subcritical run should leave some oscillators drifting")
	}
}

// TestSlipCounterLockedRun checks the locked regime: far above K_c the
// counter reports zero slips and no drifting oscillators.
func TestSlipCounterLockedRun(t *testing.T) {
	// Synchronized start: the whole-run secant of DriftRates would
	// otherwise pick up the spread-initial pull-in transient.
	cfg := Config{N: 10, K: 8, FreqMean: 0, FreqStd: 1, Seed: 4}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &SlipCounter{}
	if _, err := sim.RunStream(m, 40, 201, counter); err != nil {
		t.Fatal(err)
	}
	if counter.Slips() != 0 {
		t.Errorf("locked run slipped %d times", counter.Slips())
	}
	if d := counter.Drifting(0.05); d != 0 {
		t.Errorf("locked run reports %d drifting oscillators", d)
	}
}

// slipPOMConfig builds a jittered POM whose frozen period noise makes
// ranks drift apart — the regime where slips occur in a non-Kuramoto
// family.
func slipPOMConfig(t *testing.T, dde bool, workers int) core.Config {
	t.Helper()
	tp, err := topology.NextNeighbor(16, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		N:         16,
		TComp:     0.8,
		TComm:     0.2,
		Potential: potential.Tanh{},
		Topology:  tp,
		LocalNoise: noise.Jitter{
			Dist: noise.Gaussian, Amp: 0.25, Refresh: 1, Seed: 9,
		},
		Workers: workers,
	}
	if dde {
		cfg.InteractionNoise = noise.ConstantLag{Lag: 0.05}
	}
	return cfg
}

// TestSlipCounterMatchesRowsPOM pins the counter on a different family
// and both solver paths: for the POM at Workers = 1 and 4, ODE and DDE,
// the streamed slip count equals the CountSlipsRows oracle over the
// materialized rows of an identical model — the sink is family-agnostic.
func TestSlipCounterMatchesRowsPOM(t *testing.T) {
	const tEnd, nSamples = 90.0, 181
	for _, tc := range []struct {
		name    string
		dde     bool
		workers int
	}{
		{"ode/workers1", false, 1},
		{"ode/workers4", false, 4},
		{"dde/workers1", true, 1},
		{"dde/workers4", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mMat, err := core.New(slipPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(mMat, tEnd, nSamples)
			if err != nil {
				t.Fatal(err)
			}

			mStr, err := core.New(slipPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			counter := &SlipCounter{}
			if _, err := sim.RunStream(mStr, tEnd, nSamples, counter); err != nil {
				t.Fatal(err)
			}
			if want := CountSlipsRows(res.Ys); counter.Slips() != want {
				t.Fatalf("streamed slips = %d, rows reference = %d", counter.Slips(), want)
			}
		})
	}
}

// TestSlipCounterReuse checks that one counter can be reused across runs
// (Begin resets all state) — the sweep usage pattern.
func TestSlipCounterReuse(t *testing.T) {
	cfg := Config{N: 8, K: 0.3, FreqStd: 1, Seed: 2, SpreadInitial: true}
	counter := &SlipCounter{}
	var first int
	for round := 0; round < 2; round++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunStream(m, 50, 201, counter); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = counter.Slips()
		} else if counter.Slips() != first {
			t.Fatalf("reused counter: %d slips, first run %d", counter.Slips(), first)
		}
	}
}
