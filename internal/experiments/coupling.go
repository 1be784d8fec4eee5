package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E5ModelPoint is one (βκ, wave speed) sample from the oscillator model.
type E5ModelPoint struct {
	// BetaKappa is the coupling aggregate βκ (the model's v_p numerator).
	BetaKappa float64
	// Speed is the idle-wave speed in ranks per period (0 when the wave
	// did not propagate — the free-process case βκ ≈ 0).
	Speed float64
	// R2 is the front fit quality (0 when no wave).
	R2 float64
	// Propagated reports whether a measurable wave formed.
	Propagated bool
}

// E5MPIPoint is one protocol/topology sample from the MPI simulator.
type E5MPIPoint struct {
	Label string
	// BetaKappa is the nominal βκ of the configuration.
	BetaKappa float64
	// Speed is the idle-wave speed in ranks per iteration.
	Speed float64
	// R2 is the fit quality.
	R2 float64
	// Reached counts ranks the wave arrived at. On a unidirectional
	// stencil this separates β = 1 (eager: the delay propagates only to
	// ranks that need the delayed rank's messages) from β = 2
	// (rendezvous: the blocked handshake also stalls senders, so the wave
	// travels both ways).
	Reached int
}

// E5Result reproduces the §5.1.1 claim: idle-wave speed grows with βκ;
// βκ ≈ 0 means free processes, βκ = 1 the slowest wave, large βκ a stiff,
// strongly synchronizing system.
type E5Result struct {
	Model []E5ModelPoint
	MPI   []E5MPIPoint
}

// WaveSpeedVsCoupling sweeps the model coupling and measures front speeds;
// on the MPI side it contrasts eager vs. rendezvous protocol (β = 1 vs 2)
// on the ±1 stencil.
func WaveSpeedVsCoupling(betaKappas []float64) (*E5Result, error) {
	res := &E5Result{}
	const n = 32
	tp, err := topology.NextNeighbor(n, true)
	if err != nil {
		return nil, err
	}
	for _, bk := range betaKappas {
		pt := E5ModelPoint{BetaKappa: bk}
		couple := bk // v_p = βκ/period with period 1
		if couple <= 0 {
			couple = 1e-300 // free processes
		}
		cfg := core.Config{
			N:                n,
			TComp:            0.8,
			TComm:            0.2,
			Potential:        potential.Tanh{},
			Topology:         tp,
			CouplingOverride: couple,
			LocalNoise:       noise.Delay{Rank: n / 2, Start: 10, Duration: 2, Extra: 100},
		}
		m, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		wave, err := core.NewWaveDetector(m, n/2, 10, 0.15)
		if err != nil {
			return nil, err
		}
		if _, err := sim.RunStream(m, 120, 1201, wave); err != nil {
			return nil, err
		}
		if wf, err := wave.Finish(); err == nil && wf.Reached >= n/3 {
			pt.Speed = wf.SpeedRanksPerPeriod
			pt.R2 = wf.R2
			pt.Propagated = true
		}
		res.Model = append(res.Model, pt)
	}

	// MPI side. On the symmetric ±1 stencil the blocking data dependency
	// caps the wave at 1 rank/iteration regardless of protocol, so the β
	// effect is demonstrated on the unidirectional d=+1 stencil: with
	// eager sends the delay only propagates to the ranks that consume the
	// delayed rank's messages; with rendezvous the handshake also stalls
	// the ranks sending *to* it, doubling the coupled directions (β = 2).
	for _, mode := range []struct {
		label   string
		offsets []int
		bytes   float64
		bk      float64
	}{
		{"eager ±1 (βκ=2)", []int{-1, 1}, 1024, 2},
		{"eager +1 (β=1, one-sided)", []int{1}, 1024, 1},
		{"rendezvous +1 (β=2, two-sided)", []int{1}, 1 << 20, 2},
	} {
		pt, err := mpiWaveSpeed(mode.offsets, mode.bytes, mode.label, mode.bk)
		if err != nil {
			return nil, err
		}
		res.MPI = append(res.MPI, *pt)
	}
	return res, nil
}

// mpiWaveSpeed runs the scalable kernel on a stencil with the given
// message size and measures the idle-wave speed.
func mpiWaveSpeed(offsets []int, msgBytes float64, label string, bk float64) (*E5MPIPoint, error) {
	const n = 32
	const iters = 240
	tp, err := topology.Stencil(n, offsets, false)
	if err != nil {
		return nil, err
	}
	k := kernels.Pisolver()
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), msgBytes, iters)
	if err != nil {
		return nil, err
	}
	delayIter := iters / 6
	engine, err := cluster.NewSim(cluster.Meggie((n+9)/10), progs, cluster.Options{
		Delays: []cluster.DelayInjection{{Rank: n / 2, Iter: delayIter, Extra: 10 * k.CoreSeconds}},
	})
	if err != nil {
		return nil, err
	}
	out, err := engine.Run()
	if err != nil {
		return nil, err
	}
	tr := out.Trace
	iterDur := tr.MeanIterationTime(0)
	tDelay := tr.IterEnds[n/2][delayIter-1]
	wm, err := tr.MeasureIdleWave(n/2, tDelay, 0.5*iterDur, iterDur, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", label, err)
	}
	return &E5MPIPoint{
		Label:     label,
		BetaKappa: bk,
		Speed:     wm.SpeedRanksPerIter,
		R2:        wm.R2,
		Reached:   wm.Reached,
	}, nil
}
