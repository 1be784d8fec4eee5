package core

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Model must satisfy the full sim contract the unified runtime dispatches
// on.
var (
	_ sim.System   = (*Model)(nil)
	_ sim.Delayed  = (*Model)(nil)
	_ sim.Tuned    = (*Model)(nil)
	_ sim.Releaser = (*Model)(nil)
)

// TestLockAccumulatorMatchesFrequencyLocked pins the streaming
// frequency-lock decision against the trajectory-walking FrequencyLocked
// oracle over a locked run (imbalanced tanh chain) and an unlocked one
// (drifting weakly coupled chain), across window fractions and
// tolerances.
func TestLockAccumulatorMatchesFrequencyLocked(t *testing.T) {
	tp, err := topology.NextNeighbor(10, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"locked": {
			N: 10, TComp: 0.8, TComm: 0.2,
			Potential: potential.Tanh{}, Topology: tp,
			LocalNoise: noise.Imbalance{Extra: map[int]float64{4: 0.05}},
		},
		"drifting": {
			N: 10, TComp: 0.8, TComm: 0.2,
			Potential: potential.Tanh{}, Topology: tp,
			CouplingOverride: 0.05,
			LocalNoise:       noise.Imbalance{Extra: map[int]float64{4: 0.5}},
		},
	}
	for name, cfg := range cases {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(120, 241)
		if err != nil {
			t.Fatal(err)
		}
		for _, ff := range []float64{0.2, 0.5} {
			for _, tol := range []float64{1e-2, 1e-4} {
				m2, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				lock := &sim.LockAccumulator{FinalFraction: ff}
				if _, err := sim.RunStream(m2, 120, 241, lock); err != nil {
					t.Fatal(err)
				}
				want := oracleFrequencyLocked(res, ff, tol)
				if got := lock.Locked(tol); got != want {
					t.Errorf("%s ff=%v tol=%v: streamed lock = %v, materialized = %v",
						name, ff, tol, got, want)
				}
			}
		}
	}
}

// TestWeightedChunkWorkersBitwiseOnIrregularTopology is the NUMA-balance
// pin at the model level: on a topology whose nonzeros are concentrated
// in a few hub rows, the nnz-weighted chunking must still produce
// bit-for-bit the serial right-hand side (and hence the even-chunk
// output it replaced, which was pinned serial-identical before).
func TestWeightedChunkWorkersBitwiseOnIrregularTopology(t *testing.T) {
	const n = 96
	rng := stats.NewRNG(7)
	tp, err := topology.Random(n, 0.08, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential: potential.NewDesync(1.3),
		Topology:  tp,
		Init:      RandomPhases, PerturbSeed: 9, PerturbAmp: 0.4,
	}
	serial, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	y := serial.InitialState()
	want := make([]float64, n)
	serial.Eval(0.3, y, want)

	for _, workers := range []int{2, 5, 16} {
		cfg := base
		cfg.Workers = workers
		par, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		par.Eval(0.3, y, got)
		par.Close()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: rhs[%d] = %v differs from serial %v",
					workers, i, got[i], want[i])
			}
		}
	}
}
