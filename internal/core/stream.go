package core

import (
	"errors"
	"math"

	"repro/internal/stats"
)

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

// WaveDetector measures the idle-wave front launched by a one-off delay
// at rank origin, online: the metric's one implementation. Each rank's
// lag behind undisturbed progress, L_i(t) = ω·t − θ_i(t), is zero until
// the wave reaches it; the arrival time is the first sample where L_i
// grows by more than threshold radians over its value at the last sample
// before the delay. The baseline is tracked sample by sample, arrivals
// are detected forward, and Finish fits the front speed as the
// regression slope of rank distance against arrival time.
type WaveDetector struct {
	origin        int
	delayStart    float64
	threshold     float64
	omega, period float64
	periodic      bool

	n       int
	k       int
	frozen  bool
	base    []float64
	arrival []float64
}

// NewWaveDetector builds a wave detector for the model's topology and
// frequency. threshold 0 selects 0.15 rad.
func NewWaveDetector(m *Model, origin int, delayStart, threshold float64) (*WaveDetector, error) {
	if origin < 0 || origin >= m.cfg.N {
		return nil, errors.New("core: wave origin out of range")
	}
	if threshold <= 0 {
		threshold = 0.15
	}
	return &WaveDetector{
		origin:     origin,
		delayStart: delayStart,
		threshold:  threshold,
		omega:      m.omega,
		period:     m.period,
		periodic:   m.cfg.Topology.Periodic,
	}, nil
}

// Begin implements sim.Sink.
func (w *WaveDetector) Begin(n, _ int) {
	w.n = n
	w.k = 0
	w.frozen = false
	if cap(w.base) < n {
		w.base = make([]float64, n)
		w.arrival = make([]float64, n)
	}
	w.base = w.base[:n]
	w.arrival = w.arrival[:n]
	for i := range w.arrival {
		w.arrival[i] = math.NaN()
	}
}

// Sample implements sim.Sink.
func (w *WaveDetector) Sample(t float64, theta []float64) {
	k := w.k
	w.k++
	if !w.frozen {
		if k == 0 || t < w.delayStart {
			// This sample is (so far) the last one before the delay hits:
			// it defines the baseline lag.
			for i := 0; i < w.n; i++ {
				w.base[i] = w.omega*t - theta[i]
			}
			if k == 0 && t >= w.delayStart {
				w.frozen = true // arrivals scan starts at the next sample
			}
			return
		}
		w.frozen = true
	}
	for i := 0; i < w.n; i++ {
		if !math.IsNaN(w.arrival[i]) {
			continue
		}
		if w.omega*t-theta[i]-w.base[i] > w.threshold {
			w.arrival[i] = t
		}
	}
}

// Finish fits the front speed from the accumulated arrivals.
func (w *WaveDetector) Finish() (WaveFront, error) {
	wf := WaveFront{Origin: w.origin, ArrivalTime: append([]float64(nil), w.arrival...)}
	var xs, ys []float64 // x: arrival time, y: distance from origin
	for i := 0; i < w.n; i++ {
		if math.IsNaN(w.arrival[i]) || i == w.origin {
			continue
		}
		d := i - w.origin
		if d < 0 {
			d = -d
		}
		// On a ring the wave can travel both ways; use the shorter arc.
		if w.periodic && w.n-d < d {
			d = w.n - d
		}
		xs = append(xs, w.arrival[i])
		ys = append(ys, float64(d))
		wf.Reached++
	}
	if len(xs) < 3 {
		return wf, errors.New("core: wave reached too few ranks to fit a speed")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return wf, err
	}
	wf.Speed = math.Abs(fit.Slope)
	wf.SpeedRanksPerPeriod = wf.Speed * w.period
	wf.R2 = fit.R2
	return wf, nil
}
