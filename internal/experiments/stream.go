package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// E10Point is one parameter point of a streaming σ sweep: the O(N) summary
// a worker returns instead of a trajectory.
type E10Point struct {
	// Sigma is the interaction horizon of this point's desync potential.
	Sigma float64
	// MeanAbsGap is the settled mean |adjacent gap|; in the developed
	// wavefront it tracks the potential's stable zero 2σ/3.
	MeanAbsGap float64
	// StableZero is the analytic 2σ/3 reference.
	StableZero float64
	// AsymptoticSpread is the settled phase spread.
	AsymptoticSpread float64
	// Resynced reports whether the point returned to lockstep instead of
	// developing a wavefront.
	Resynced bool
}

// E10Result is the streaming σ sweep: the batch-mode counterpart of the
// paper's interactive exploration, sized for very large grids because no
// point ever materializes a trajectory.
type E10Result struct {
	// N is the oscillator count per point.
	N int
	// Points are the per-σ summaries, in grid order.
	Points []E10Point
}

// streamPointConfig builds the per-point model configuration of the
// streaming σ sweep (the TestParallelSigmaSweep scenario: a perturbed
// desynchronizing chain with a one-off delay).
func streamPointConfig(n int, sigma float64) (core.Config, error) {
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		N: n, TComp: 0.8, TComm: 0.2,
		Potential:   potential.NewDesync(sigma),
		Topology:    tp,
		Init:        core.RandomPhases,
		PerturbSeed: 5,
		PerturbAmp:  0.02,
		LocalNoise:  noise.Delay{Rank: n / 3, Start: 10, Duration: 1, Extra: 50},
	}, nil
}

// DesyncSweepStream sweeps the interaction horizon σ in streaming mode:
// every worker integrates its point through sim.RunSummary and
// returns only the accumulated Summary, so the sweep's memory is O(N) per
// point regardless of tEnd/nSamples — the pattern examples/megasweep
// scales to 10⁵ points.
func DesyncSweepStream(n int, sigmas []float64, workers int) (*E10Result, error) {
	if n < 2 || len(sigmas) == 0 {
		return nil, fmt.Errorf("experiments: invalid streaming sweep parameters")
	}
	res := &E10Result{N: n, Points: make([]E10Point, len(sigmas))}
	err := sweep.RunReduce(context.Background(), len(sigmas), workers,
		func(i int) float64 { return sigmas[i] },
		func(_ context.Context, sigma float64) (*sim.Summary, error) {
			cfg, err := streamPointConfig(n, sigma)
			if err != nil {
				return nil, err
			}
			m, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			return sim.RunSummary(m, 300, 301, 0.1, 0.1)
		},
		func(i int, sigma float64, s *sim.Summary) {
			res.Points[i] = E10Point{
				Sigma:            sigma,
				MeanAbsGap:       s.MeanAbsGap,
				StableZero:       2 * sigma / 3,
				AsymptoticSpread: s.AsymptoticSpread,
				Resynced:         s.Resynced,
			}
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}
