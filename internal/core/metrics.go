package core

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/stats"
)

// SpreadTimeline returns the phase spread max θ − min θ of the
// lagger-normalized phases at every sample: the model's global
// desynchronization measure. It decays to ~0 for synchronizing potentials
// and settles at the wavefront plateau for desynchronizing ones.
func (r *Result) SpreadTimeline() []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k] = stats.PhaseSpread(th)
	}
	return out
}

// OrderTimeline returns the Kuramoto order parameter r(t) at every sample.
func (r *Result) OrderTimeline() []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k], _ = stats.OrderParameter(th)
	}
	return out
}

// AdjacentGapTimeline returns θ_{i+1} − θ_i for every adjacent pair at
// every sample (rows: samples; columns: N−1 gaps). In the developed
// computational wavefront all gaps sit at the potential's stable zero.
func (r *Result) AdjacentGapTimeline() [][]float64 {
	out := make([][]float64, len(r.Theta))
	for k, th := range r.Theta {
		if len(th) == 0 {
			// An empty sample row has no adjacent pairs; len(th)-1 would
			// be a negative make length.
			out[k] = []float64{}
			continue
		}
		gaps := make([]float64, len(th)-1)
		for i := 1; i < len(th); i++ {
			gaps[i-1] = th[i] - th[i-1]
		}
		out[k] = gaps
	}
	return out
}

// ResyncTime returns the first sample time at which the phase spread drops
// below eps and stays below it for the rest of the run, or an error when
// the system never resynchronizes. This quantifies the paper's
// "snaps back into a synchronized state" behaviour. The rows replay
// through sim.ResyncDetector, the metric's one implementation.
func (r *Result) ResyncTime(eps float64) (float64, error) {
	d := &sim.ResyncDetector{Eps: eps}
	sim.Replay(d, r.Ts, r.Theta)
	t, err := d.ResyncTime()
	if err != nil {
		return 0, errors.New("core: system did not resynchronize")
	}
	return t, nil
}

// AsymptoticSpread returns the mean phase spread over the final fraction
// (e.g. 0.2 for the last 20%) of the run: the settled desynchronization
// level of the computational wavefront. finalFraction 0 averages the final
// sample alone. The rows replay through sim.SpreadAccumulator.
func (r *Result) AsymptoticSpread(finalFraction float64) float64 {
	a := &sim.SpreadAccumulator{FinalFraction: sim.LiteralFraction(finalFraction)}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Asymptotic()
}

// AsymptoticGaps returns the time-averaged adjacent gaps over the final
// fraction of the run (the final sample alone for finalFraction 0), or nil
// for a Result without samples. The rows replay through
// sim.GapAccumulator.
func (r *Result) AsymptoticGaps(finalFraction float64) []float64 {
	if len(r.Theta) == 0 {
		return nil
	}
	a := &sim.GapAccumulator{FinalFraction: sim.LiteralFraction(finalFraction)}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Gaps()
}

// WaveFront holds the measured propagation of a one-off delay through the
// oscillator chain.
type WaveFront struct {
	// Origin is the delayed rank.
	Origin int
	// ArrivalTime[i] is the time the disturbance reached rank i (NaN when
	// it never did).
	ArrivalTime []float64
	// Speed is the fitted propagation speed in ranks per time unit
	// (absolute value of the regression slope rank-vs-arrival).
	Speed float64
	// SpeedRanksPerPeriod is Speed × period: the paper's natural unit.
	SpeedRanksPerPeriod float64
	// R2 is the goodness of the linear fit.
	R2 float64
	// Reached is the number of ranks the wave arrived at.
	Reached int
}

// MeasureWave detects the idle-wave front launched by a one-off delay at
// rank origin. Each rank's lag behind undisturbed progress,
// L_i(t) = ω·t − θ_i(t), is zero until the wave reaches it; the arrival
// time is the first sample where L_i grows by more than threshold radians
// over its pre-delay value. The front speed is the regression slope of
// rank distance against arrival time. threshold 0 selects 0.15 rad. The
// rows replay through a WaveDetector, the metric's one implementation.
func (r *Result) MeasureWave(origin int, delayStart float64, threshold float64) (WaveFront, error) {
	w, err := NewWaveDetector(r.Model, origin, delayStart, threshold)
	if err != nil {
		return WaveFront{}, err
	}
	sim.Replay(w, r.Ts, r.Theta)
	return w.Finish()
}

// FrequencyTimeline returns the numerically differentiated instantaneous
// frequency of each oscillator (rows: samples−1).
func (r *Result) FrequencyTimeline() [][]float64 {
	if len(r.Ts) < 2 {
		return nil
	}
	out := make([][]float64, len(r.Ts)-1)
	for k := 1; k < len(r.Ts); k++ {
		dt := r.Ts[k] - r.Ts[k-1]
		row := make([]float64, len(r.Theta[k]))
		for i := range row {
			row[i] = (r.Theta[k][i] - r.Theta[k-1][i]) / dt
		}
		out[k-1] = row
	}
	return out
}

// FrequencyLocked reports whether all oscillators share the same mean
// frequency over the final fraction of the run, to within tol (relative).
// Both the resynchronized state and the computational wavefront are
// frequency-locked; free-running noisy oscillators are not. finalFraction
// 0 takes the secant over the final two samples. The rows replay through
// sim.LockAccumulator.
func (r *Result) FrequencyLocked(finalFraction, tol float64) bool {
	a := &sim.LockAccumulator{FinalFraction: sim.LiteralFraction(finalFraction)}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Locked(tol)
}
