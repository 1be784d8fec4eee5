// Package repro_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (experiments E1–E9, see the
// experiment index in the internal/experiments package doc) under
// testing.B, plus ablations of the model's design choices.
// Custom metrics report the headline physical quantities next to the
// runtime cost, so `go test -bench=. -benchmem` doubles as the
// reproduction run.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/ode"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// BenchmarkFig1aPotentials regenerates Fig. 1(a): the two interaction
// potential curves and the desync potential's first zero at 2σ/3.
func BenchmarkFig1aPotentials(b *testing.B) {
	b.ReportAllocs()
	var zero float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1aPotentials(5, 512)
		if err != nil {
			b.Fatal(err)
		}
		zero = res.Rows[1].MeasuredZero
	}
	b.ReportMetric(zero, "desync-zero")
}

// BenchmarkFig1bScalability regenerates Fig. 1(b): socket bandwidth
// scaling of STREAM, slow Schönauer, and PISOLVER on the Meggie model.
func BenchmarkFig1bScalability(b *testing.B) {
	b.ReportAllocs()
	var streamSat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1bScalability(cluster.Meggie(1), 10, 3)
		if err != nil {
			b.Fatal(err)
		}
		streamSat = float64(res.Curves[0].SaturationProcs)
	}
	b.ReportMetric(streamSat, "stream-sat-cores")
}

// BenchmarkFig2Scalable regenerates Fig. 2(a): scalable code, ±1
// stencil — idle wave propagation, decay, and resynchronization in both
// the MPI simulator and the oscillator model.
func BenchmarkFig2Scalable(b *testing.B) {
	b.ReportAllocs()
	var speed float64
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunFig2Panel(experiments.DefaultFig2([]int{-1, 1}, true))
		if err != nil {
			b.Fatal(err)
		}
		speed = row.MPI.WaveSpeed
	}
	b.ReportMetric(speed, "mpi-ranks/iter")
}

// BenchmarkFig2ScalableStiff regenerates Fig. 2(c): the d=±1,−2 stencil.
func BenchmarkFig2ScalableStiff(b *testing.B) {
	b.ReportAllocs()
	var speed float64
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunFig2Panel(experiments.DefaultFig2([]int{-2, -1, 1}, true))
		if err != nil {
			b.Fatal(err)
		}
		speed = row.MPI.WaveSpeed
	}
	b.ReportMetric(speed, "mpi-ranks/iter")
}

// BenchmarkFig2Bottlenecked regenerates Fig. 2(b): memory-bound code —
// idle wave plus residual computational wavefront with gaps at 2σ/3.
func BenchmarkFig2Bottlenecked(b *testing.B) {
	b.ReportAllocs()
	var gap float64
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunFig2Panel(experiments.DefaultFig2([]int{-1, 1}, false))
		if err != nil {
			b.Fatal(err)
		}
		gap = row.Model.MeanAbsGap
	}
	b.ReportMetric(gap, "model-gap-rad")
}

// BenchmarkFig2BottleneckedStiff regenerates Fig. 2(d).
func BenchmarkFig2BottleneckedStiff(b *testing.B) {
	b.ReportAllocs()
	var gap float64
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunFig2Panel(experiments.DefaultFig2([]int{-2, -1, 1}, false))
		if err != nil {
			b.Fatal(err)
		}
		gap = row.Model.MeanAbsGap
	}
	b.ReportMetric(gap, "model-gap-rad")
}

// BenchmarkWaveSpeedVsCoupling regenerates the §5.1.1 sweep: idle-wave
// speed against βκ, plus the eager/rendezvous contrast.
func BenchmarkWaveSpeedVsCoupling(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.WaveSpeedVsCoupling([]float64{0, 1, 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.Model[1].Speed > 0 {
			ratio = res.Model[2].Speed / res.Model[1].Speed
		}
	}
	b.ReportMetric(ratio, "speed4/speed1")
}

// BenchmarkStiffnessSweep regenerates the §5.2.2 claims: settled gaps
// track 2σ/3 and the stiffer topology speeds up delay propagation while
// shrinking the phase gaps.
func BenchmarkStiffnessSweep(b *testing.B) {
	b.ReportAllocs()
	var speedRatio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.StiffnessSweep([]float64{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		speedRatio = res.Stiffness.MPISpeedRatio
	}
	b.ReportMetric(speedRatio, "mpi-speed-ratio")
}

// BenchmarkKuramotoBaseline regenerates the §2.2.2 baseline: the
// synchronization transition, phase slips, and the all-to-all barrier
// effect the paper rejects.
func BenchmarkKuramotoBaseline(b *testing.B) {
	b.ReportAllocs()
	var slips float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.KuramotoBaseline([]float64{0.2, 4.0})
		if err != nil {
			b.Fatal(err)
		}
		slips = float64(res.WeakCouplingSlips)
	}
	b.ReportMetric(slips, "phase-slips")
}

// BenchmarkNoiseDecay regenerates E8: idle-wave decay lengths under
// background noise in both substrates (the §6 open question).
func BenchmarkNoiseDecay(b *testing.B) {
	b.ReportAllocs()
	var loudLen float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.NoiseDecay([]float64{0, 0.6})
		if err != nil {
			b.Fatal(err)
		}
		loudLen = res.Points[1].MPIDecayLen
	}
	b.ReportMetric(loudLen, "mpi-decay-ranks")
}

// BenchmarkCollectiveBarrier regenerates E9: a per-iteration Allreduce
// delivers an injected delay to every rank at once, vs the traveling wave
// of point-to-point exchange (§2.2.2 trace-side evidence).
func BenchmarkCollectiveBarrier(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CollectiveBarrier()
		if err != nil {
			b.Fatal(err)
		}
		spread = res.CollectiveArrivalSpreadIters
	}
	b.ReportMetric(spread, "collective-spread-iters")
}

// BenchmarkFig1bSuperMUCNG regenerates the artifact-appendix variant of
// Fig. 1(b) on the SuperMUC-NG machine model (24-core Skylake,
// 100 GB/s sockets).
func BenchmarkFig1bSuperMUCNG(b *testing.B) {
	b.ReportAllocs()
	var streamSat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1bScalability(cluster.SuperMUCNG(1), 24, 3)
		if err != nil {
			b.Fatal(err)
		}
		streamSat = float64(res.Curves[0].SaturationProcs)
	}
	b.ReportMetric(streamSat, "stream-sat-cores")
}

// --- Hot-path micro-benchmarks ------------------------------------------

// baselineRHS is a faithful transcription of the pre-change
// core.Model.rhs: [][]int neighbor lists, one interface dispatch per
// (i, j) pair, per-pair delay checks, and a per-oscillator noise call
// plus division. It is the reference the flat-CSR/batched speedup is
// measured against.
type baselineRHS struct {
	neighbors [][]int
	pot       potential.Potential
	local     noise.Local
	inoise    noise.Interaction
	period    float64
	vp, gain  float64
	n         int
}

func (m *baselineRHS) zeta(i int, t float64) float64 {
	if m.local == nil {
		return 0
	}
	z := m.local.Zeta(i, t)
	if z < -0.9*m.period {
		z = -0.9 * m.period
	}
	return z
}

func (m *baselineRHS) rhs(t float64, y []float64, past ode.Past, dydt []float64) {
	k := m.vp * m.gain / float64(m.n)
	inoise := m.inoise
	for i := range y {
		freq := 2 * math.Pi / (m.period + m.zeta(i, t))
		var coupling float64
		for _, j := range m.neighbors[i] {
			thj := y[j]
			if past != nil && inoise != nil {
				if tau := inoise.Tau(i, j, t); tau > 0 {
					thj = past.Eval(j, t-tau)
				}
			}
			coupling += m.pot.Eval(thj - y[i])
		}
		dydt[i] = freq + k*coupling
	}
}

// benchRHSModel builds the N-oscillator sine-potential ring shared by the
// BenchmarkRHS* variants.
func benchRHSModel(b *testing.B, n, workers int) (*core.Model, []float64, []float64) {
	b.Helper()
	tp, err := topology.NextNeighbor(n, true)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.New(core.Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential: potential.KuramotoSine{},
		Topology:  tp,
		Workers:   workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 0.01 * float64(i)
	}
	return m, y, make([]float64, n)
}

// BenchmarkRHSBaseline1024 measures the pre-change interface-dispatch
// right-hand side on the N=1024 sine-potential ring — the reference the
// acceptance criterion's ≥2x speedup is counted from.
func BenchmarkRHSBaseline1024(b *testing.B) {
	m, y, dydt := benchRHSModel(b, 1024, 1)
	tp, err := topology.NextNeighbor(1024, true)
	if err != nil {
		b.Fatal(err)
	}
	base := &baselineRHS{
		neighbors: tp.Neighbors(),
		pot:       potential.KuramotoSine{},
		period:    1.0,
		vp:        m.Vp(),
		gain:      float64(m.N()),
		n:         m.N(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.rhs(0, y, nil, dydt)
	}
}

// BenchmarkRHSFlat1024 measures the flat-CSR, batch-potential right-hand
// side on the same system (serial).
func BenchmarkRHSFlat1024(b *testing.B) {
	m, y, dydt := benchRHSModel(b, 1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval(0, y, dydt)
	}
}

// BenchmarkRHSFlatWorkers1024 measures the same right-hand side with the
// persistent 4-worker pool (Config.Workers), which must stay bit-for-bit
// identical to the serial result.
func BenchmarkRHSFlatWorkers1024(b *testing.B) {
	m, y, dydt := benchRHSModel(b, 1024, 4)
	defer m.Close()
	m.Eval(0, y, dydt) // start the pool outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval(0, y, dydt)
	}
}

// BenchmarkRHSFlat8192Workers scales the parallel path up to N=8192,
// where the per-call fan-out cost is fully amortized.
func BenchmarkRHSFlat8192Workers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			m, y, dydt := benchRHSModel(b, 8192, workers)
			defer m.Close()
			m.Eval(0, y, dydt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Eval(0, y, dydt)
			}
		})
	}
}

// BenchmarkEngineEager measures the pooled event engine on the 40-rank
// eager-protocol STREAM exchange: value-typed heap, dense channel array,
// recycled requests and compute tasks.
func BenchmarkEngineEager(b *testing.B) {
	benchEngine(b, 1024)
}

// BenchmarkEngineRendezvous is BenchmarkEngineEager above the eager
// threshold, exercising the handshake path and its request recycling.
func BenchmarkEngineRendezvous(b *testing.B) {
	benchEngine(b, 1<<20)
}

func benchEngine(b *testing.B, msgBytes float64) {
	tp, err := topology.NextNeighbor(40, false)
	if err != nil {
		b.Fatal(err)
	}
	k := kernels.STREAM()
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), msgBytes, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		engine, err := cluster.NewSim(cluster.Meggie(4), progs, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationKappaRule contrasts the κ aggregation rules of §3.1:
// grouped MPI_Waitall (κ = max|d|) halves the coupling of the ±1,−2
// stencil relative to separate waits (κ = Σ|d|), slowing the idle wave.
func BenchmarkAblationKappaRule(b *testing.B) {
	run := func(mode topology.WaitMode) float64 {
		tp, err := topology.Stencil(32, []int{-2, -1, 1}, true)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{
			N: 32, TComp: 0.8, TComm: 0.2,
			Potential:  potential.Tanh{},
			Topology:   tp,
			WaitMode:   mode,
			LocalNoise: noise.Delay{Rank: 16, Start: 10, Duration: 2, Extra: 100},
		}
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		det, err := core.NewWaveDetector(m, 16, 10, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunStream(m, 120, 1201, det); err != nil {
			b.Fatal(err)
		}
		wf, err := det.Finish()
		if err != nil {
			b.Fatal(err)
		}
		return wf.SpeedRanksPerPeriod
	}
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		sep := run(topology.SeparateWaits)  // κ = 4
		grp := run(topology.GroupedWaitall) // κ = 2
		ratio = sep / grp
	}
	b.ReportMetric(ratio, "separate/grouped")
}

// BenchmarkAblationNoiseDecay contrasts idle-wave decay with and without
// background system noise (§5.1.1: waves interact nonlinearly with noise
// and decay faster).
func BenchmarkAblationNoiseDecay(b *testing.B) {
	resync := func(jitter float64) float64 {
		cfg := core.Config{
			N: 24, TComp: 0.8, TComm: 0.2,
			Potential: potential.Tanh{},
		}
		tp, err := topology.NextNeighbor(24, true)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Topology = tp
		local := noise.Sum{noise.Delay{Rank: 12, Start: 10, Duration: 2, Extra: 100}}
		if jitter > 0 {
			local = append(local, noise.Jitter{
				Dist: noise.Gaussian, Amp: jitter, Refresh: 1, Seed: 9,
			})
		}
		cfg.LocalNoise = local
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(150, 751)
		if err != nil {
			b.Fatal(err)
		}
		// Residual spread 30 periods after the delay window measures how
		// much of the wave survives.
		spread := &sim.SpreadAccumulator{KeepTimeline: true}
		sim.Replay(spread, res.Ts, res.Theta)
		for k, t := range res.Ts {
			if t >= 42 {
				return spread.Timeline[k]
			}
		}
		return spread.Final()
	}
	b.ReportAllocs()
	var silent, noisy float64
	for i := 0; i < b.N; i++ {
		silent = resync(0)
		noisy = resync(0.05)
	}
	b.ReportMetric(silent, "spread-silent")
	b.ReportMetric(noisy, "spread-noisy")
}

// BenchmarkAblationSolver contrasts the adaptive DOPRI5 used by the paper
// (MATLAB ode45) with fixed-step RK4 at matched accuracy on a POM-like
// system: the adaptive solver needs far fewer evaluations per period.
func BenchmarkAblationSolver(b *testing.B) {
	tp, err := topology.NextNeighbor(16, true)
	if err != nil {
		b.Fatal(err)
	}
	nb := tp.Neighbors()
	pot := potential.Tanh{}
	rhs := func(_ float64, y, dydt []float64) {
		for i := range y {
			var c float64
			for _, j := range nb[i] {
				c += pot.Eval(y[j] - y[i])
			}
			dydt[i] = 6.28 + 2*c
		}
	}
	y0 := make([]float64, 16)
	y0[5] = -2
	b.Run("dopri5", func(b *testing.B) {
		b.ReportAllocs()
		var evals float64
		final := make([]float64, len(y0))
		keep := func(_ float64, y []float64) { copy(final, y) }
		for i := 0; i < b.N; i++ {
			s := ode.NewDOPRI5(1e-8, 1e-8)
			st, err := s.Solve(rhs, y0, 0, 50, ode.SolveOptions{NSamples: 2, SampleFunc: keep})
			if err != nil {
				b.Fatal(err)
			}
			evals = float64(st.Evals)
		}
		b.ReportMetric(evals, "rhs-evals")
	})
	b.Run("rk4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := &ode.RK4{}
			if _, err := ode.FixedSolve(rhs, st, y0, 0, 50, 1e-3, 1<<30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMPISimulatorThroughput measures raw DES performance: events
// per second for a 40-rank STREAM run — the substrate cost of every
// trace-side experiment.
func BenchmarkMPISimulatorThroughput(b *testing.B) {
	tp, err := topology.NextNeighbor(40, false)
	if err != nil {
		b.Fatal(err)
	}
	k := kernels.STREAM()
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events float64
	for i := 0; i < b.N; i++ {
		engine, err := cluster.NewSim(cluster.Meggie(4), progs, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			b.Fatal(err)
		}
		events = float64(res.Events)
	}
	b.ReportMetric(events, "events/run")
}

// BenchmarkPOMIntegration measures the oscillator-model integration cost
// for the paper's 40-rank configuration.
func BenchmarkPOMIntegration(b *testing.B) {
	tp, err := topology.NextNeighbor(40, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		N: 40, TComp: 0.8, TComm: 0.2,
		Potential: potential.Tanh{},
		Topology:  tp,
	}
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(100, 101); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepConfig is the per-point model of the streaming-sweep
// benchmarks: a small desynchronizing chain, cheap enough that the
// memory-model difference dominates the signal. It returns rather than
// b.Fatal-s the error because it runs on sweep worker goroutines, where
// FailNow's Goexit would kill the worker instead of failing the sweep.
func benchSweepConfig(sigma float64) (core.Config, error) {
	tp, err := topology.NextNeighbor(8, false)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		N: 8, TComp: 0.8, TComm: 0.2,
		Potential:   potential.NewDesync(sigma),
		Topology:    tp,
		Init:        core.RandomPhases,
		PerturbSeed: 5,
		PerturbAmp:  0.02,
	}, nil
}

// BenchmarkSweepBytesPerPoint contrasts the two sweep memory models on an
// identical 16-point σ sweep. "materialized" retains each point's
// *core.Result (trajectory rows) the way a pre-streaming sweep had to;
// "streamed" runs each point through sim.RunSummary and keeps only
// the O(N) Summary. The B/point metric (heap bytes allocated per sweep
// point) grows linearly with samples in materialized mode and stays flat
// in streamed mode — the O(1)-in-nSamples evidence the ROADMAP's
// million-scenario sweeps rest on.
func BenchmarkSweepBytesPerPoint(b *testing.B) {
	const nPoints = 16
	sigmas := make([]float64, nPoints)
	for i := range sigmas {
		sigmas[i] = 0.8 + 1.2*float64(i)/float64(nPoints-1)
	}
	for _, nSamples := range []int{201, 2001} {
		b.Run(fmt.Sprintf("materialized/samples%d", nSamples), func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				results := make([]*core.Result, nPoints)
				err := sweep.RunReduce(context.Background(), nPoints, 4,
					func(i int) float64 { return sigmas[i] },
					func(_ context.Context, sigma float64) (*core.Result, error) {
						cfg, err := benchSweepConfig(sigma)
						if err != nil {
							return nil, err
						}
						m, err := core.New(cfg)
						if err != nil {
							return nil, err
						}
						return m.Run(60, nSamples)
					},
					func(i int, _ float64, r *core.Result) { results[i] = r })
				if err != nil {
					b.Fatal(err)
				}
				// Touch the retained trajectories like a post-processing
				// pass would.
				for i, r := range results {
					if len(r.Theta) != nSamples {
						b.Fatalf("point %d: %d rows", i, len(r.Theta))
					}
				}
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N*nPoints), "B/point")
		})
		b.Run(fmt.Sprintf("streamed/samples%d", nSamples), func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				sums := make([]*sim.Summary, nPoints)
				err := sweep.RunReduce(context.Background(), nPoints, 4,
					func(i int) float64 { return sigmas[i] },
					func(_ context.Context, sigma float64) (*sim.Summary, error) {
						cfg, err := benchSweepConfig(sigma)
						if err != nil {
							return nil, err
						}
						m, err := core.New(cfg)
						if err != nil {
							return nil, err
						}
						return sim.RunSummary(m, 60, nSamples, 0.1, 0.15)
					},
					func(i int, _ float64, s *sim.Summary) { sums[i] = s })
				if err != nil {
					b.Fatal(err)
				}
				for i, s := range sums {
					if s == nil {
						b.Fatalf("point %d missing", i)
					}
				}
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N*nPoints), "B/point")
		})
	}
}
