package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Fig2Params are the shared corner-case parameters of Fig. 2. The paper
// runs 40 MPI processes on 4 Meggie sockets with a one-off delay on the
// 5th process.
type Fig2Params struct {
	// N is the rank count (paper: 40).
	N int
	// Offsets selects the communication stencil (±1 or ±1,−2).
	Offsets []int
	// Scalable selects PISOLVER+tanh (true) or STREAM+desync (false).
	Scalable bool
	// Sigma is the desync potential horizon (used when !Scalable).
	Sigma float64
	// DelayRank and DelayIters: the disturbed rank and the delay length
	// in units of undisturbed iterations/periods.
	DelayRank  int
	DelayIters float64
	// Iters is the MPI simulation iteration count.
	Iters int
	// Periods is the POM integration length in natural periods.
	Periods float64
}

// DefaultFig2 returns the paper's setup for the given stencil and
// scalability class.
func DefaultFig2(offsets []int, scalable bool) Fig2Params {
	return Fig2Params{
		N:          40,
		Offsets:    offsets,
		Scalable:   scalable,
		Sigma:      1.5,
		DelayRank:  5,
		DelayIters: 10,
		Iters:      400,
		// Scalable runs need the idle wave (≈0.3 ranks/period at βκ = 2)
		// to cross the whole 40-rank chain and decay before the
		// asymptotic window; bottlenecked runs settle much faster.
		Periods: 400,
	}
}

// MPIPanel is the trace side of one Fig. 2 panel.
type MPIPanel struct {
	// WaveSpeed is the idle-wave front speed in ranks per iteration.
	WaveSpeed float64
	// WaveR2 is the front fit quality.
	WaveR2 float64
	// WaveReached counts ranks the wave arrived at.
	WaveReached int
	// PreSpread and PostSpread are the iteration-progress spreads before
	// the delay and in the asymptotic state.
	PreSpread, PostSpread float64
	// PostAdjacentSkew is the mean adjacent |skew| in the asymptotic
	// state (≈ 0 lockstep, finite wavefront).
	PostAdjacentSkew float64
	// SocketBandwidthGBs is the achieved socket-0 bandwidth.
	SocketBandwidthGBs float64
	// Makespan is the run duration.
	Makespan float64
}

// ModelPanel is the oscillator-model side of one Fig. 2 panel.
type ModelPanel struct {
	// WaveSpeed is the idle-wave front speed in ranks per period.
	WaveSpeed float64
	// WaveR2 is the front fit quality.
	WaveR2 float64
	// AsymptoticSpread is the settled phase spread (radians).
	AsymptoticSpread float64
	// MeanAbsGap is the mean |adjacent phase gap| in the settled state.
	MeanAbsGap float64
	// StableZero is the potential's analytic settling gap (2σ/3 or 0).
	StableZero float64
	// Resynced reports whether the system returned to lockstep.
	Resynced bool
	// FreqLocked reports asymptotic frequency locking.
	FreqLocked bool
}

// Fig2Row is one complete panel: MPI trace vs. oscillator model.
type Fig2Row struct {
	Label  string
	Params Fig2Params
	MPI    MPIPanel
	Model  ModelPanel
}

// RunFig2Panel produces one panel of Fig. 2: the MPI-simulator trace
// phenomenology side by side with the oscillator-model prediction.
func RunFig2Panel(p Fig2Params) (*Fig2Row, error) {
	label := fmt.Sprintf("d=%v ", p.Offsets)
	if p.Scalable {
		label += "scalable"
	} else {
		label += "bottlenecked"
	}
	row := &Fig2Row{Label: label, Params: p}

	mpi, err := runFig2MPI(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s MPI side: %w", label, err)
	}
	row.MPI = *mpi

	model, err := runFig2Model(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s model side: %w", label, err)
	}
	row.Model = *model
	return row, nil
}

// runFig2MPI simulates the MPI program on the Meggie model and extracts
// the trace metrics.
func runFig2MPI(p Fig2Params) (*MPIPanel, error) {
	tp, err := topology.Stencil(p.N, p.Offsets, false)
	if err != nil {
		return nil, err
	}
	var k kernels.Kernel
	if p.Scalable {
		k = kernels.Pisolver()
	} else {
		k = kernels.STREAM()
	}
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, p.Iters)
	if err != nil {
		return nil, err
	}
	sockets := (p.N + 9) / 10
	delayIter := p.Iters / 8
	engine, err := cluster.NewSim(cluster.Meggie(sockets), progs, cluster.Options{
		Delays: []cluster.DelayInjection{{
			Rank:  p.DelayRank,
			Iter:  delayIter,
			Extra: p.DelayIters * k.CoreSeconds,
		}},
	})
	if err != nil {
		return nil, err
	}
	res, err := engine.Run()
	if err != nil {
		return nil, err
	}
	tr := res.Trace
	iterDur := tr.MeanIterationTime(0)
	tDelay := tr.IterEnds[p.DelayRank][delayIter-1]

	panel := &MPIPanel{
		SocketBandwidthGBs: res.AggregateBandwidth(0) / 1e9,
		Makespan:           res.Makespan,
	}
	if wm, err := tr.MeasureIdleWave(p.DelayRank, tDelay, 0.5*iterDur, iterDur, false); err == nil {
		panel.WaveSpeed = wm.SpeedRanksPerIter
		panel.WaveR2 = wm.R2
		panel.WaveReached = wm.Reached
	}
	if dm, err := tr.MeasureDesync(tDelay*0.5, tDelay*0.95, 40); err == nil {
		panel.PreSpread = dm.Spread
	}
	if dm, err := tr.MeasureDesync(res.Makespan*0.75, res.Makespan*0.97, 40); err == nil {
		panel.PostSpread = dm.Spread
		panel.PostAdjacentSkew = dm.MeanAbsAdjacent
	}
	return panel, nil
}

// runFig2Model integrates the matching oscillator model through the
// unified sim runtime: the trajectory streams once through the shared
// accumulator sinks (spread, gaps, resync, frequency lock) plus the wave
// detector, so no Fig. 2 panel ever materializes its 4000-row trajectory.
// Every metric is pinned bit-for-bit to its materialized counterpart by
// the core streaming tests.
func runFig2Model(p Fig2Params) (*ModelPanel, error) {
	tp, err := topology.Stencil(p.N, p.Offsets, false)
	if err != nil {
		return nil, err
	}
	var pot potential.Potential
	if p.Scalable {
		pot = potential.Tanh{}
	} else {
		pot = potential.NewDesync(p.Sigma)
	}
	period := 1.0
	delayStart := p.Periods / 8
	cfg := core.Config{
		N:         p.N,
		TComp:     0.8 * period,
		TComm:     0.2 * period,
		Potential: pot,
		Topology:  tp,
		LocalNoise: noise.Delay{
			Rank:     p.DelayRank,
			Start:    delayStart,
			Duration: p.DelayIters * period / 4,
			Extra:    100 * period,
		},
	}
	if !p.Scalable {
		// The unstable lockstep needs a seed perturbation besides the
		// delay so the wavefront develops over the whole chain.
		cfg.Init = core.RandomPhases
		cfg.PerturbSeed = 1
		cfg.PerturbAmp = 0.02
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	spread := &sim.SpreadAccumulator{FinalFraction: 0.15}
	gaps := &sim.GapAccumulator{FinalFraction: 0.15}
	resync := &sim.ResyncDetector{Eps: 0.1}
	lock := &sim.LockAccumulator{FinalFraction: 0.2}
	wave, err := core.NewWaveDetector(m, p.DelayRank, delayStart, 0.15)
	if err != nil {
		return nil, err
	}
	_, err = sim.RunStream(m, p.Periods*period, int(p.Periods)*10+1,
		sim.Tee(spread, gaps, resync, lock, wave))
	if err != nil {
		return nil, err
	}

	panel := &ModelPanel{
		AsymptoticSpread: spread.Asymptotic(),
		FreqLocked:       lock.Locked(1e-2),
		MeanAbsGap:       gaps.MeanAbsGap(),
	}
	if a, ok := pot.(potential.Analyzable); ok {
		panel.StableZero = a.StableZero()
	}
	if _, err := resync.ResyncTime(); err == nil {
		panel.Resynced = true
	}
	if wf, err := wave.Finish(); err == nil {
		panel.WaveSpeed = wf.SpeedRanksPerPeriod
		panel.WaveR2 = wf.R2
	}
	return panel, nil
}

// Fig2All runs the four corner cases of Fig. 2 (top/bottom row ×
// left/right column) concurrently — each panel is an independent pair of
// simulations, so they run on the sweep worker pool.
func Fig2All() ([]Fig2Row, error) {
	cases := []Fig2Params{
		DefaultFig2([]int{-1, 1}, true),      // (a)
		DefaultFig2([]int{-1, 1}, false),     // (b)
		DefaultFig2([]int{-2, -1, 1}, true),  // (c)
		DefaultFig2([]int{-2, -1, 1}, false), // (d)
	}
	rows := make([]Fig2Row, len(cases))
	err := sweep.RunReduce(context.Background(), len(cases), 0,
		func(i int) Fig2Params { return cases[i] },
		func(_ context.Context, p Fig2Params) (*Fig2Row, error) { return RunFig2Panel(p) },
		func(i int, _ Fig2Params, row *Fig2Row) { rows[i] = *row })
	if err != nil {
		return nil, err
	}
	return rows, nil
}
