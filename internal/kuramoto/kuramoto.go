// Package kuramoto implements the plain Kuramoto model (paper Eq. 1) as
// the baseline the physical oscillator model is compared against:
//
//	dθ_i/dt = ω_i + (K/N)·Σ_j sin(θ_j − θ_i)
//
// with all-to-all coupling, heterogeneous natural frequencies, and the
// classic order-parameter phenomenology: incoherence below the critical
// coupling K_c and partial synchronization above it. The package exists to
// demonstrate §2.2.2's objections quantitatively — global coupling acts
// like a per-period barrier, phase slips are possible, and spontaneous
// desynchronization of bottlenecked programs cannot occur.
//
// Model implements sim.System, so Kuramoto runs route through the same
// unified runtime as the POM core: RunStream drives the shared
// accumulator sinks, and the sweep/archive machinery (sweep.RunReduce,
// sweep.RunArchive) works over Kuramoto points unchanged.
package kuramoto

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/ode"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes a Kuramoto run.
type Config struct {
	// N is the number of oscillators.
	N int
	// K is the global coupling strength.
	K float64
	// FreqMean and FreqStd parameterize the Gaussian distribution of
	// natural frequencies g(ω).
	FreqMean, FreqStd float64
	// Seed makes frequency and phase draws reproducible.
	Seed uint64
	// SpreadInitial draws initial phases uniformly on [0, 2π) when true;
	// otherwise all start at zero.
	SpreadInitial bool
	// Atol and Rtol are solver tolerances; 0 selects 1e-8 / 1e-6.
	Atol, Rtol float64
}

// Model is a configured Kuramoto system. A Model is not safe for
// concurrent use: Eval writes a model-owned scratch buffer.
type Model struct {
	cfg    Config
	omegas []float64
	theta0 []float64
	sbuf   []float64 // Eval scratch: sin(ψ − θ_i)
}

// New draws frequencies and initial phases and returns the model.
func New(cfg Config) (*Model, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("kuramoto: need N >= 2, got %d", cfg.N)
	}
	if cfg.K < 0 {
		return nil, errors.New("kuramoto: negative coupling")
	}
	// A non-finite coupling or frequency distribution would not fail here
	// or in New's draws — it would poison the right-hand side and surface
	// as a solver step-size underflow (or silent NaN phases) deep inside a
	// sweep. Reject it at the boundary instead.
	if math.IsNaN(cfg.K) || math.IsInf(cfg.K, 0) {
		return nil, fmt.Errorf("kuramoto: non-finite coupling %v", cfg.K)
	}
	if math.IsNaN(cfg.FreqMean) || math.IsInf(cfg.FreqMean, 0) {
		return nil, fmt.Errorf("kuramoto: non-finite frequency mean %v", cfg.FreqMean)
	}
	if cfg.FreqStd < 0 || math.IsNaN(cfg.FreqStd) || math.IsInf(cfg.FreqStd, 0) {
		return nil, fmt.Errorf("kuramoto: frequency spread must be finite and nonnegative, got %v", cfg.FreqStd)
	}
	rng := stats.NewRNG(cfg.Seed)
	m := &Model{cfg: cfg}
	m.omegas = make([]float64, cfg.N)
	m.theta0 = make([]float64, cfg.N)
	m.sbuf = make([]float64, cfg.N)
	for i := range m.omegas {
		m.omegas[i] = rng.NormalMS(cfg.FreqMean, cfg.FreqStd)
		if cfg.SpreadInitial {
			m.theta0[i] = rng.Uniform(0, mathx.TwoPi)
		}
	}
	return m, nil
}

// Omegas returns the drawn natural frequencies.
func (m *Model) Omegas() []float64 { return m.omegas }

// CriticalCoupling returns Kuramoto's mean-field onset of synchrony for
// the Gaussian frequency distribution, centred on its mean so that its
// peak density is g(0) = 1/(σ√(2π)):
//
//	K_c = 2/(π·g(0)) = 2σ√(2π)/π = σ·√(8/π).
func (m *Model) CriticalCoupling() float64 {
	if m.cfg.FreqStd == 0 {
		return 0
	}
	return m.cfg.FreqStd * math.Sqrt(8/math.Pi)
}

// Dim implements sim.System.
func (m *Model) Dim() int { return m.cfg.N }

// InitialState implements sim.System.
func (m *Model) InitialState() []float64 { return m.theta0 }

// Eval implements sim.System. It uses the order-parameter trick:
// Σ sin(θ_j − θ_i) = N·r·sin(ψ − θ_i), reducing the cost from O(N²) to
// O(N) per evaluation; the N sines run as one mathx.SinInto batch, bit
// for bit math.Sin.
//
//pomvet:allocfree
func (m *Model) Eval(_ float64, y, dydt []float64) {
	r, psi := stats.OrderParameter(y)
	kr := m.cfg.K * r
	s := m.sbuf[:len(y)]
	for i, th := range y {
		s[i] = psi - th
	}
	mathx.SinInto(s, s)
	for i, v := range s {
		dydt[i] = m.omegas[i] + kr*v
	}
}

// Solver implements sim.Tuned.
func (m *Model) Solver() sim.Solver {
	return sim.Solver{Atol: m.cfg.Atol, Rtol: m.cfg.Rtol}
}

// Result is a completed Kuramoto integration.
type Result struct {
	Ts    []float64
	Theta [][]float64
	Stats ode.Stats
}

// Run integrates the model to tEnd with nSamples uniform samples through
// the unified sim runtime.
func (m *Model) Run(tEnd float64, nSamples int) (*Result, error) {
	if tEnd <= 0 {
		return nil, errors.New("kuramoto: tEnd must be positive")
	}
	res, err := sim.Run(m, tEnd, nSamples)
	if err != nil {
		return nil, fmt.Errorf("kuramoto: %w", err)
	}
	return &Result{Ts: res.Ts, Theta: res.Ys, Stats: res.Stats}, nil
}

// RunStream integrates like Run but emits the sample rows to sink instead
// of materializing them — the constant-memory path Kuramoto coupling
// sweeps pair with the shared accumulator sinks.
func (m *Model) RunStream(tEnd float64, nSamples int, sink sim.Sink) (ode.Stats, error) {
	if tEnd <= 0 {
		return ode.Stats{}, errors.New("kuramoto: tEnd must be positive")
	}
	return sim.RunStream(m, tEnd, nSamples, sink)
}

// OrderTimeline returns r(t) at every sample.
func (r *Result) OrderTimeline() []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k], _ = stats.OrderParameter(th)
	}
	return out
}

// AsymptoticOrder averages r(t) over the final fraction of the run.
func (r *Result) AsymptoticOrder(finalFraction float64) float64 {
	n := len(r.Theta)
	if n == 0 {
		return 0
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	var sum float64
	for k := start; k < n; k++ {
		rk, _ := stats.OrderParameter(r.Theta[k])
		sum += rk
	}
	return sum / float64(n-start)
}

// SweepPoint is one (K, r∞) sample of the synchronization transition.
type SweepPoint struct {
	K, R float64
}

// SweepCoupling measures the asymptotic order parameter across a range of
// couplings — the classic Kuramoto bifurcation diagram used to place K_c.
// Each point streams through the shared OrderAccumulator instead of
// materializing its trajectory, so the sweep holds O(N) state per point;
// the accumulated r∞ is bit-for-bit AsymptoticOrder(0.25) on the
// materialized run.
func SweepCoupling(base Config, ks []float64, tEnd float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(ks))
	for _, k := range ks {
		cfg := base
		cfg.K = k
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		order := &sim.OrderAccumulator{FinalFraction: 0.25}
		if _, err := m.RunStream(tEnd, 201, order); err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{K: k, R: order.Asymptotic()})
	}
	return out, nil
}

// PhaseSlips counts events where an oscillator's phase distance to the
// mean phase grows past 2π — the slips that the paper's non-periodic
// potentials forbid but the sine coupling allows. The count is computed
// by CountSlipsRows (mean-field drift removed: increments are compared
// against the ensemble mean), which the streaming SlipCounter reproduces
// bitwise without the materialized trajectory.
func (r *Result) PhaseSlips() int { return CountSlipsRows(r.Theta) }
