package experiments

import (
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E6SigmaPoint is one σ sample of the interaction-horizon sweep.
type E6SigmaPoint struct {
	Sigma float64
	// MeanAbsGap is the settled adjacent phase gap (model).
	MeanAbsGap float64
	// PredictedGap is the analytic first stable zero 2σ/3.
	PredictedGap float64
	// Spread is the settled total phase spread.
	Spread float64
}

// E6StiffnessPair contrasts the d=±1 and d=±1,−2 bottlenecked panels —
// the §5.2.2 claim of ≈3× faster delay propagation and correspondingly
// smaller phase spread under the stiffer topology.
type E6StiffnessPair struct {
	// MPISpeedRatio is speed(d=±1,−2)/speed(d=±1) from the traces.
	MPISpeedRatio float64
	// ModelGapRatio is meanAbsGap(d=±1,−2)/meanAbsGap(d=±1) from the
	// model: the adjacent-gap magnitude is the sign-pattern-independent
	// measure of the broken-symmetry state's phase spread (the total
	// spread depends on whether the instability selected a tilt or a
	// zigzag). Theory: the ±1 stencil settles at 2σ/3 per gap, the
	// ±1,−2 stencil at σ/3 — ratio 0.5.
	ModelGapRatio float64
	// Rows holds the two underlying panels.
	Rows []Fig2Row
}

// E6Result reproduces the §5.2.2 claims.
type E6Result struct {
	SigmaSweep []E6SigmaPoint
	Stiffness  E6StiffnessPair
}

// StiffnessSweep sweeps the interaction horizon σ (settled gaps must track
// 2σ/3) and contrasts the two bottlenecked topologies of Fig. 2(b, d).
func StiffnessSweep(sigmas []float64) (*E6Result, error) {
	res := &E6Result{}
	const n = 16
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		return nil, err
	}
	for _, sigma := range sigmas {
		cfg := core.Config{
			N:           n,
			TComp:       0.8,
			TComm:       0.2,
			Potential:   potential.NewDesync(sigma),
			Topology:    tp,
			Init:        core.RandomPhases,
			PerturbSeed: 7,
			PerturbAmp:  0.02,
			LocalNoise:  noise.Delay{Rank: 5, Start: 20, Duration: 2, Extra: 100},
		}
		m, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		spread := &sim.SpreadAccumulator{FinalFraction: 0.1}
		gaps := &sim.GapAccumulator{FinalFraction: 0.1}
		if _, err := sim.RunStream(m, 400, 801, sim.Tee(spread, gaps)); err != nil {
			return nil, err
		}
		res.SigmaSweep = append(res.SigmaSweep, E6SigmaPoint{
			Sigma:        sigma,
			MeanAbsGap:   gaps.MeanAbsGap(),
			PredictedGap: 2 * sigma / 3,
			Spread:       spread.Asymptotic(),
		})
	}

	// The (b) vs (d) contrast.
	b, err := RunFig2Panel(DefaultFig2([]int{-1, 1}, false))
	if err != nil {
		return nil, err
	}
	d, err := RunFig2Panel(DefaultFig2([]int{-2, -1, 1}, false))
	if err != nil {
		return nil, err
	}
	res.Stiffness.Rows = []Fig2Row{*b, *d}
	if b.MPI.WaveSpeed > 0 {
		res.Stiffness.MPISpeedRatio = d.MPI.WaveSpeed / b.MPI.WaveSpeed
	}
	if b.Model.MeanAbsGap > 0 {
		res.Stiffness.ModelGapRatio = d.Model.MeanAbsGap / b.Model.MeanAbsGap
	}
	return res, nil
}
