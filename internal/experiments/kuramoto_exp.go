package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kuramoto"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E7Result reproduces the §2.2.2 baseline arguments against the plain
// Kuramoto model.
type E7Result struct {
	// Transition is the order-parameter bifurcation r∞(K).
	Transition []kuramoto.SweepPoint
	// CriticalCoupling is the mean-field K_c for the frequency spread.
	CriticalCoupling float64
	// WeakCouplingSlips counts phase slips at K << K_c — the behaviour the
	// POM potentials forbid.
	WeakCouplingSlips int
	// AllToAllArrivalSpread is the spread (max−min) of idle-wave arrival
	// times under all-to-all coupling in the POM: near zero, because the
	// global coupling acts like a per-period synchronizing barrier and the
	// disturbance reaches every rank at once.
	AllToAllArrivalSpread float64
	// NeighborArrivalSpread is the same quantity under ±1 coupling for
	// contrast (the wave takes ~N/2 periods to cross the ring).
	NeighborArrivalSpread float64
}

// KuramotoBaseline runs the plain-Kuramoto phenomenology the paper argues
// cannot describe parallel programs. Every run streams through the
// unified sim runtime: kuramoto.SweepCoupling feeds each coupling point
// to the shared OrderAccumulator, the weak-coupling run to a
// kuramoto.SlipCounter, and the POM arrival runs to a core.WaveDetector.
func KuramotoBaseline(ks []float64) (*E7Result, error) {
	base := kuramoto.Config{N: 150, FreqMean: 0, FreqStd: 1, Seed: 11, SpreadInitial: true}
	trans, err := kuramoto.SweepCoupling(base, ks, 40)
	if err != nil {
		return nil, err
	}
	m, err := kuramoto.New(base)
	if err != nil {
		return nil, err
	}
	res := &E7Result{Transition: trans, CriticalCoupling: m.CriticalCoupling()}

	weak := base
	weak.K = 0.05
	wm, err := kuramoto.New(weak)
	if err != nil {
		return nil, err
	}
	slips := &kuramoto.SlipCounter{}
	if _, err := sim.RunStream(wm, 100, 501, slips); err != nil {
		return nil, err
	}
	res.WeakCouplingSlips = slips.Slips()

	// All-to-all vs ±1 wave arrival spread in the POM.
	spread := func(tp *topology.Topology) (float64, error) {
		cfg := core.Config{
			N:          tp.N,
			TComp:      0.8,
			TComm:      0.2,
			Potential:  potential.Tanh{},
			Topology:   tp,
			LocalNoise: noise.Delay{Rank: tp.N / 2, Start: 10, Duration: 2, Extra: 100},
		}
		mm, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		wave, err := core.NewWaveDetector(mm, tp.N/2, 10, 0.15)
		if err != nil {
			return 0, err
		}
		if _, err := sim.RunStream(mm, 80, 801, wave); err != nil {
			return 0, err
		}
		// The arrival times themselves are the signal here; the linear
		// speed fit legitimately degenerates under all-to-all coupling
		// (every rank is hit in the same instant), so fit errors are
		// ignored as long as arrivals were detected.
		wf, _ := wave.Finish()
		lo, hi := math.Inf(1), math.Inf(-1)
		found := 0
		for i, a := range wf.ArrivalTime {
			if i == tp.N/2 || math.IsNaN(a) {
				continue
			}
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
			found++
		}
		if found < 3 {
			return 0, fmt.Errorf("experiments: wave reached only %d ranks", found)
		}
		return hi - lo, nil
	}
	const n = 24
	ata, err := topology.AllToAll(n)
	if err != nil {
		return nil, err
	}
	if res.AllToAllArrivalSpread, err = spread(ata); err != nil {
		return nil, err
	}
	nn, err := topology.NextNeighbor(n, true)
	if err != nil {
		return nil, err
	}
	if res.NeighborArrivalSpread, err = spread(nn); err != nil {
		return nil, err
	}
	return res, nil
}
