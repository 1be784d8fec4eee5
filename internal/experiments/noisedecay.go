package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E8 explores the open question of the paper's §6: can the model's noise
// functions describe idle-wave decay? An idle wave in a noise-free
// blocking chain propagates essentially undamped; system noise creates
// idle slack that absorbs part of the wave at every hop, so the wave
// amplitude decays with distance (Markidis et al. 2015; Afzal et al.
// 2019). The experiment launches the same one-off delay under increasing
// background noise in both substrates and fits the exponential decay
// length of the wave amplitude.

// E8Point is one noise-amplitude sample.
type E8Point struct {
	// NoiseAmp is the background noise amplitude as a fraction of the
	// compute phase (MPI side) / period (model side).
	NoiseAmp float64
	// MPIDecayLen is the fitted 1/e decay length in ranks from the
	// traces; +Inf when the wave does not decay measurably.
	MPIDecayLen float64
	// ModelDecayLen is the same from the oscillator model.
	ModelDecayLen float64
	// MPIAmpAt1 and MPIAmpAt10 are the wave amplitudes (excess wait, in
	// units of the iteration duration) at distances 1 and 10.
	MPIAmpAt1, MPIAmpAt10 float64
}

// E8Result is the noise-decay sweep.
type E8Result struct {
	Points []E8Point
}

// NoiseDecay measures idle-wave amplitude decay for the given noise
// amplitudes (fractions; e.g. 0, 0.1, 0.3).
func NoiseDecay(amps []float64) (*E8Result, error) {
	res := &E8Result{}
	for _, amp := range amps {
		pt := E8Point{NoiseAmp: amp}
		if err := mpiNoiseDecay(&pt); err != nil {
			return nil, fmt.Errorf("experiments: E8 MPI amp=%g: %w", amp, err)
		}
		if err := modelNoiseDecay(&pt); err != nil {
			return nil, fmt.Errorf("experiments: E8 model amp=%g: %w", amp, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// fitDecayLength fits amp(d) = A·exp(−d/λ) and returns λ; +Inf when the
// amplitudes do not decrease measurably across the range.
func fitDecayLength(dists, ampsByDist []float64) float64 {
	var xs, ys []float64
	for i, a := range ampsByDist {
		if a > 0 {
			xs = append(xs, dists[i])
			ys = append(ys, math.Log(a))
		}
	}
	if len(xs) < 4 {
		return math.Inf(1)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil || fit.Slope >= -1e-3 {
		return math.Inf(1)
	}
	return -1 / fit.Slope
}

// mpiNoiseDecay runs the trace side.
func mpiNoiseDecay(pt *E8Point) error {
	const n = 40
	const iters = 300
	const delayIter = 60
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		return err
	}
	k := kernels.Pisolver()
	progs, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, iters)
	if err != nil {
		return err
	}
	opts := cluster.Options{
		Delays: []cluster.DelayInjection{{Rank: n / 2, Iter: delayIter, Extra: 10 * k.CoreSeconds}},
	}
	if pt.NoiseAmp > 0 {
		amp := pt.NoiseAmp * k.CoreSeconds
		opts.ComputeNoise = func(rank, iter int) float64 {
			h := uint64(rank+1)*0x9e3779b97f4a7c15 ^ uint64(iter+1)*0xbf58476d1ce4e5b9
			h = (h ^ (h >> 30)) * 0x94d049bb133111eb
			h ^= h >> 31
			return amp * float64(h>>11) / (1 << 53)
		}
	}
	engine, err := cluster.NewSim(cluster.Meggie((n+9)/10), progs, opts)
	if err != nil {
		return err
	}
	out, err := engine.Run()
	if err != nil {
		return err
	}
	tr := out.Trace
	iterDur := tr.MeanIterationTime(0)
	tDelay := tr.IterEnds[n/2][delayIter-1]

	// Wave amplitude per rank: the largest excess comm span after the
	// injection over the rank's pre-injection baseline.
	amp := make([]float64, n)
	for r := 0; r < n; r++ {
		var base float64
		for _, s := range tr.Spans[r] {
			if s.End > tDelay {
				break
			}
			if s.Kind.String() == "comm" && s.Duration() > base {
				base = s.Duration()
			}
		}
		for _, s := range tr.Spans[r] {
			if s.End <= tDelay || s.Kind.String() != "comm" {
				continue
			}
			if ex := s.Duration() - base; ex > amp[r] {
				amp[r] = ex
			}
		}
	}
	// Average the two sides at each distance, in iteration units.
	var dists, byDist []float64
	maxD := n/2 - 1
	for d := 1; d <= maxD; d++ {
		a := (amp[n/2-d] + amp[n/2+d]) / 2 / iterDur
		if d == 1 {
			pt.MPIAmpAt1 = a
		}
		if d == 10 {
			pt.MPIAmpAt10 = a
		}
		if a <= 0.02 { // below measurement floor: stop the fit range
			break
		}
		dists = append(dists, float64(d))
		byDist = append(byDist, a)
	}
	pt.MPIDecayLen = fitDecayLength(dists, byDist)
	return nil
}

// modelNoiseDecay runs the oscillator-model side.
func modelNoiseDecay(pt *E8Point) error {
	const n = 40
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		return err
	}
	local := noise.Sum{noise.Delay{Rank: n / 2, Start: 20, Duration: 2, Extra: 100}}
	if pt.NoiseAmp > 0 {
		local = append(local, noise.Jitter{
			Dist: noise.UniformSym, Amp: pt.NoiseAmp, Refresh: 1, Seed: 17,
		})
	}
	cfg := core.Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential:  potential.Tanh{},
		Topology:   tp,
		LocalNoise: local,
	}
	m, err := core.New(cfg)
	if err != nil {
		return err
	}

	// Peak lag excess per rank relative to the pre-delay baseline: the
	// lag at the last sample before the delay starts at t = 20.
	omega := m.Omega()
	amp := make([]float64, n)
	base := make([]float64, n)
	peak := sim.SinkFunc(func(t float64, theta []float64) {
		if t < 20 {
			for i := 0; i < n; i++ {
				base[i] = omega*t - theta[i]
			}
			return
		}
		for i := 0; i < n; i++ {
			lag := omega*t - theta[i]
			if ex := lag - base[i]; ex > amp[i] {
				amp[i] = ex
			}
		}
	})
	if _, err := sim.RunStream(m, 150, 1501, peak); err != nil {
		return err
	}

	var dists, byDist []float64
	for d := 1; d <= n/2-1; d++ {
		a := (amp[n/2-d] + amp[n/2+d]) / 2
		if a <= 0.05 {
			break
		}
		dists = append(dists, float64(d))
		byDist = append(byDist, a)
	}
	pt.ModelDecayLen = fitDecayLength(dists, byDist)
	return nil
}
