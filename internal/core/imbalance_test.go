package core

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/topology"
)

// TestStaticImbalancePinsTheSystem exercises the §3.1 remark that the
// process-local noise channel "can also serve to model load imbalance":
// one permanently slower rank under the synchronizing potential drags the
// whole chain into frequency lock with a static lag profile centered on
// the slow rank. The locked frequency is pinned exactly by the model's
// conservation law Σθ̇ᵢ = Σωᵢ (symmetric topology, odd potential): it is
// the *average* of the natural frequencies. (A real MPI chain locks to
// the slowest rank instead — blocking receives only pull backwards; the
// tanh potential pulls both ways. This is a genuine, documented deviation
// of the oscillator analogy for static imbalance.)
func TestStaticImbalancePinsTheSystem(t *testing.T) {
	n := 12
	slow := 6
	extra := 0.1 // +10% period on the slow rank
	cfg := baseConfig(t, n)
	cfg.LocalNoise = noise.Imbalance{Extra: map[int]float64{slow: extra}}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(200, 401)
	if err != nil {
		t.Fatal(err)
	}
	if !frequencyLocked(res, 0.2, 1e-2) {
		t.Fatal("imbalanced system must still frequency-lock (tanh coupling)")
	}
	// Conservation law: the locked frequency is the mean of the natural
	// frequencies.
	ft := res.FrequencyTimeline()
	locked := ft[len(ft)-1][0]
	omegaSlow := 2 * math.Pi / (m.period + extra)
	wantLock := (float64(n-1)*m.Omega() + omegaSlow) / float64(n)
	if math.Abs(locked-wantLock) > 1e-3 {
		t.Errorf("locked frequency %v, want mean frequency %v", locked, wantLock)
	}
	// Static profile: the slow rank is the lagger; lag grows toward it.
	norm := res.NormalizedPhases()
	last := norm[len(norm)-1]
	if last[slow] > 1e-6 {
		t.Errorf("slow rank must be the lagger baseline, got %v", last[slow])
	}
	for i := 1; i < n/2-1; i++ {
		// Moving away from the slow rank, the normalized phase (lead over
		// the lagger) must not decrease.
		if last[slow+i+1] < last[slow+i]-1e-6 {
			t.Errorf("lead profile not monotone away from slow rank at %d: %v < %v",
				slow+i, last[slow+i+1], last[slow+i])
		}
	}
}

// TestImbalanceTooStrongForCoupling: when the frequency detuning exceeds
// what the saturated tanh pull can compensate, the slow rank falls behind
// without bound — the analogue of Kuramoto drift above the locking
// threshold. The saturated pull on the slow rank is at most
// 2·k (two partners); detuning beyond that cannot lock.
func TestImbalanceTooStrongForCoupling(t *testing.T) {
	n := 8
	slow := 4
	cfg := baseConfig(t, n)
	cfg.CouplingOverride = 0.05 // weak coupling: max pull 2·0.05 = 0.1 rad/s
	// Detuning: ω − 2π/(1+extra) ≈ 2π·extra for small extra; make it ≫ 0.1.
	cfg.LocalNoise = noise.Imbalance{Extra: map[int]float64{slow: 0.5}}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(100, 201)
	if err != nil {
		t.Fatal(err)
	}
	spread := spreadTimeline(res)
	// The spread must keep growing (no lock): final much larger than
	// mid-run.
	mid, last := spread[len(spread)/2], spread[len(spread)-1]
	if last < 1.5*mid {
		t.Errorf("spread stopped growing (%v -> %v) — expected unbounded drift", mid, last)
	}
}

// TestImbalanceWithDesyncPotential: the wavefront still forms around a
// mildly imbalanced rank (robustness of the broken-symmetry state).
func TestImbalanceWithDesyncPotential(t *testing.T) {
	n := 10
	sigma := 1.5
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential:   potential.NewDesync(sigma),
		Topology:    tp,
		Init:        RandomPhases,
		PerturbSeed: 13,
		PerturbAmp:  0.02,
		LocalNoise:  noise.Imbalance{Extra: map[int]float64{3: 0.01}},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(300, 601)
	if err != nil {
		t.Fatal(err)
	}
	if !frequencyLocked(res, 0.2, 1e-2) {
		t.Error("mildly imbalanced wavefront must lock")
	}
	gaps := asymptoticGaps(res, 0.1)
	want := 2 * sigma / 3
	for i, g := range gaps {
		if math.Abs(math.Abs(g)-want) > 0.2 {
			t.Errorf("gap %d = %v, want ±%v", i, g, want)
		}
	}
}
