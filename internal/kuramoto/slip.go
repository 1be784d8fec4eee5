package kuramoto

import (
	"math"

	"repro/internal/mathx"
)

// SlipCounter counts phase slips and measures per-oscillator drift
// online, in O(N) memory, so million-point Kuramoto sweeps need no
// materialized trajectory. It implements sim.Sink. It is the one
// implementation of the slip count, and the tests pin it bit for bit to a
// trajectory-walking oracle (per oscillator the same drift-corrected
// increments, accumulated in the same order, against the same ensemble
// means).
type SlipCounter struct {
	n     int
	k     int
	total int

	prev     []float64
	prevMean float64
	acc      []float64

	t0, t1          float64
	y0, y1          []float64
	mean0, lastMean float64
}

// Begin implements sim.Sink.
func (s *SlipCounter) Begin(n, _ int) {
	s.n = n
	s.k = 0
	s.total = 0
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
		s.acc = make([]float64, n)
		s.y0 = make([]float64, n)
		s.y1 = make([]float64, n)
	}
	s.prev, s.acc = s.prev[:n], s.acc[:n]
	s.y0, s.y1 = s.y0[:n], s.y1[:n]
	for i := 0; i < n; i++ {
		s.acc[i] = 0
	}
}

// Sample implements sim.Sink.
func (s *SlipCounter) Sample(t float64, theta []float64) {
	mean := mathx.Mean(theta)
	if s.k == 0 {
		copy(s.prev, theta)
		s.prevMean = mean
		s.t0, s.mean0 = t, mean
		copy(s.y0, theta)
	} else {
		drift := mean - s.prevMean
		for i := 0; i < s.n; i++ {
			s.acc[i] += (theta[i] - s.prev[i]) - drift
			if math.Abs(s.acc[i]) >= mathx.TwoPi {
				s.total++
				s.acc[i] = 0
			}
			s.prev[i] = theta[i]
		}
		s.prevMean = mean
	}
	s.t1 = t
	copy(s.y1, theta)
	s.lastMean = mean
	s.k++
}

// Slips returns the total slip count.
func (s *SlipCounter) Slips() int { return s.total }

// DriftRates returns each oscillator's mean drift rate relative to the
// ensemble mean over the whole run: the secant
// ((θ_i(t_end) − θ_i(0)) − (θ̄(t_end) − θ̄(0))) / Δt. Oscillators locked
// to the mean field drift at ≈ 0; drifting (unentrained) oscillators at
// their residual natural frequency. Returns nil when fewer than two
// samples arrived.
func (s *SlipCounter) DriftRates() []float64 {
	if s.k < 2 || s.t1 <= s.t0 {
		return nil
	}
	dt := s.t1 - s.t0
	meanDrift := s.lastMean - s.mean0
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = ((s.y1[i] - s.y0[i]) - meanDrift) / dt
	}
	return out
}

// Drifting counts oscillators whose |drift rate| exceeds tol — the
// unentrained population below the synchronization transition.
func (s *SlipCounter) Drifting(tol float64) int {
	count := 0
	for _, d := range s.DriftRates() {
		if math.Abs(d) > tol {
			count++
		}
	}
	return count
}
