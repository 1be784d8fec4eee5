// Package core implements the physical oscillator model (POM) of the
// paper — its primary contribution. Each of the N MPI processes is an
// oscillator whose phase θ_i advances by 2π per compute–communicate cycle;
// the processes are coupled through a sparse topology matrix T and an
// interaction potential V (Eq. 2):
//
//	dθ_i/dt = 2π/(t_comp + t_comm + ζ_i(t))
//	        + (v_p·G/N) · Σ_j T_ij · V(θ_j(t−τ_ij(t)) − θ_i(t))
//
// with process-local noise ζ_i(t), interaction noise τ_ij(t), coupling
// strength v_p = β·κ/(t_comp+t_comm), and a dimensionless gain G (see
// Config.Gain). The system is integrated with the adaptive Dormand–Prince
// solver (delay-capable when τ ≠ 0), exactly as the paper's MATLAB
// artifact uses ode45.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/noise"
	"repro/internal/ode"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// InitialCondition selects the starting phase configuration (§3.2: the
// MATLAB tool allows synchronized and desynchronized initial conditions).
type InitialCondition int

const (
	// Synchronized starts all oscillators at θ = 0 (lockstep).
	Synchronized InitialCondition = iota
	// Desynchronized starts with uniform phase gaps of one stable-zero
	// width between adjacent oscillators (the developed wavefront).
	Desynchronized
	// RandomPhases starts with small random perturbations around zero.
	RandomPhases
	// CustomPhases uses Config.InitialPhases verbatim.
	CustomPhases
)

// Config fully parameterizes a POM run — the paper emphasizes that the
// model has a small number of parameters, all exposed here.
type Config struct {
	// N is the number of oscillators (MPI processes).
	N int
	// TComp and TComm are the compute and communicate phase durations; the
	// natural period is their sum and the natural frequency 2π/period.
	TComp, TComm float64
	// Potential is the interaction potential V.
	Potential potential.Potential
	// Topology is the dependency structure T_ij.
	Topology *topology.Topology
	// Protocol sets β (eager 1, rendezvous 2).
	Protocol topology.Protocol
	// WaitMode sets the κ aggregation rule (Σ|d| vs max|d|).
	WaitMode topology.WaitMode
	// CouplingOverride, when > 0, replaces v_p = βκ/period.
	CouplingOverride float64
	// Gain is the dimensionless coupling gain G; 0 means the default N
	// (per-partner pull of strength v_p, which makes βκ = 1 the paper's
	// "minimum idle wave speed" case). Set Gain = 1 for the literal 1/N
	// Kuramoto normalization of Eq. (2).
	Gain float64
	// LocalNoise is ζ_i(t); nil means silent.
	LocalNoise noise.Local
	// InteractionNoise is τ_ij(t); nil means no delays.
	InteractionNoise noise.Interaction
	// Init selects the starting condition.
	Init InitialCondition
	// InitialPhases is used when Init == CustomPhases.
	InitialPhases []float64
	// PerturbSeed seeds the RandomPhases perturbation.
	PerturbSeed uint64
	// PerturbAmp is the RandomPhases amplitude (radians); 0 means 0.1.
	PerturbAmp float64
	// Atol and Rtol are solver tolerances; 0 selects 1e-8 / 1e-6.
	Atol, Rtol float64
	// Workers is the number of goroutines evaluating the right-hand side,
	// chunked over contiguous oscillator ranges; 0 or 1 means serial.
	// Parallel evaluation is bit-for-bit identical to serial evaluation:
	// every oscillator's coupling sum is accumulated in the same order
	// regardless of the chunking. On a 2-core host Workers = 2 is slower
	// than serial up to N ≈ 8k; only desync chains from N ≈ 16k gain
	// (~1.3×), and tanh chains barely break even at N = 32k.
	// With Workers > 1 the LocalNoise (Zeta, or ZetaInto when it
	// implements noise.Batch) and Potential batch methods are called
	// concurrently from pool goroutines, so custom implementations must be
	// safe for concurrent use (the built-in noises and potentials are
	// stateless and qualify).
	Workers int
}

// Model is a configured POM system ready to integrate. A Model is not
// safe for concurrent use; parallelism happens inside the right-hand
// side via Config.Workers.
type Model struct {
	cfg    Config
	period float64
	omega  float64
	vp     float64
	gain   float64
	k      float64 // effective per-partner coupling v_p·G/N

	// Hot-path state: the topology's flat CSR arrays (the DDE path walks
	// them directly), the shared coupling kernel over them (it owns one
	// scratch slot per directed edge), the quiet frequency row (ω in every
	// slot), the batched local noise (nil when silent), and one ζ slot per
	// oscillator, which a loud chunk overwrites with its frequencies.
	flat    topology.FlatNeighbors
	coupler *potential.Coupler
	omegas  []float64
	noise   noise.Batch
	zbuf    []float64

	// Parallel dispatch (Workers > 1): nw fixed chunk bounds over
	// oscillator rows — balanced by nonzeros per row (sim.WeightedChunks
	// over the CSR RowPtr), so irregular topologies load workers evenly —
	// and a persistent sim.Runner pool. The per-call arguments are staged
	// in cur* fields so dispatch sends only a chunk index over a channel.
	nw      int
	runner  *sim.Runner
	curT    float64
	curY    []float64
	curDydt []float64
}

// New validates the configuration and builds a model.
func New(cfg Config) (*Model, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("core: need N >= 2, got %d", cfg.N)
	}
	if cfg.TComp < 0 || cfg.TComm < 0 || cfg.TComp+cfg.TComm <= 0 {
		return nil, errors.New("core: need tComp + tComm > 0 with nonnegative parts")
	}
	if cfg.Potential == nil {
		return nil, errors.New("core: nil potential")
	}
	if cfg.Topology == nil {
		return nil, errors.New("core: nil topology")
	}
	if cfg.Topology.N != cfg.N {
		return nil, fmt.Errorf("core: topology has %d ranks, config %d", cfg.Topology.N, cfg.N)
	}
	if cfg.Init == CustomPhases && len(cfg.InitialPhases) != cfg.N {
		return nil, fmt.Errorf("core: InitialPhases has %d entries, want %d", len(cfg.InitialPhases), cfg.N)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", cfg.Workers)
	}
	m := &Model{cfg: cfg}
	m.period = cfg.TComp + cfg.TComm
	m.omega = mathx.TwoPi / m.period
	if cfg.CouplingOverride > 0 {
		m.vp = cfg.CouplingOverride
	} else {
		m.vp = cfg.Topology.Coupling(cfg.Protocol, cfg.WaitMode, cfg.TComp, cfg.TComm)
	}
	m.gain = cfg.Gain
	if m.gain == 0 {
		m.gain = float64(cfg.N)
	}
	m.k = m.vp * m.gain / float64(cfg.N)
	m.flat = cfg.Topology.Flat()
	m.coupler = potential.NewCoupler(cfg.Potential, m.flat.RowPtr, m.flat.Cols)
	m.omegas = make([]float64, cfg.N)
	for i := range m.omegas {
		m.omegas[i] = m.omega
	}
	if cfg.LocalNoise != nil {
		m.noise = noise.BatchOf(cfg.LocalNoise)
		m.zbuf = make([]float64, cfg.N)
	}
	m.nw = cfg.Workers
	if m.nw < 1 {
		m.nw = 1
	}
	if m.nw > cfg.N {
		m.nw = cfg.N
	}
	if m.nw > 1 {
		// Chunk rows by nonzero count, not row count: on irregular
		// topologies (hubs, power-law stencils) even row chunks would give
		// one worker most of the edges. Any contiguous chunking yields
		// bit-for-bit the serial result (disjoint dydt/zbuf/kernel buffer
		// ranges, per-row accumulation order fixed), so balance is free.
		m.runner = sim.NewRunner(
			sim.WeightedChunks(m.flat.RowPtr, m.nw),
			func(lo, hi int) { m.rhsRange(m.curT, m.curY, m.curDydt, lo, hi) },
		)
	}
	return m, nil
}

// Omega returns the natural angular frequency 2π/period.
func (m *Model) Omega() float64 { return m.omega }

// Coupling returns the effective per-partner coupling strength
// v_p·G/N used in the right-hand side.
func (m *Model) Coupling() float64 { return m.vp * m.gain / float64(m.cfg.N) }

// Vp returns the paper's coupling strength v_p = βκ/period (or the
// override).
func (m *Model) Vp() float64 { return m.vp }

// N returns the number of oscillators.
func (m *Model) N() int { return m.cfg.N }

// initialState builds θ(0) according to the configured initial condition.
func (m *Model) initialState() []float64 {
	y0 := make([]float64, m.cfg.N)
	switch m.cfg.Init {
	case Desynchronized:
		gap := 0.0
		if a, ok := m.cfg.Potential.(potential.Analyzable); ok {
			gap = a.StableZero()
		}
		for i := range y0 {
			y0[i] = float64(i) * gap
		}
	case RandomPhases:
		amp := m.cfg.PerturbAmp
		if amp == 0 {
			amp = 0.1
		}
		for i := range y0 {
			// Deterministic hash-based perturbation (no shared RNG state).
			u := hashUnit(m.cfg.PerturbSeed, i)
			y0[i] = amp * (2*u - 1)
		}
	case CustomPhases:
		copy(y0, m.cfg.InitialPhases)
	}
	return y0
}

// hashUnit maps (seed, i) to a deterministic uniform in [0, 1).
//
//pomvet:allocfree
func hashUnit(seed uint64, i int) float64 {
	z := seed ^ 0x9e3779b97f4a7c15
	z ^= uint64(i+1) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// zeta returns ζ_i(t), guarded so the instantaneous period stays positive.
//
//pomvet:allocfree
func (m *Model) zeta(i int, t float64) float64 {
	if m.cfg.LocalNoise == nil {
		return 0
	}
	z := m.cfg.LocalNoise.Zeta(i, t)
	if z < -0.9*m.period {
		z = -0.9 * m.period
	}
	return z
}

// rhs writes the Eq. (2) right-hand side. past is nil for the pure-ODE
// path (no interaction noise); then partner phases are read from y.
//
//pomvet:allocfree
func (m *Model) rhs(t float64, y []float64, past ode.Past, dydt []float64) {
	if past != nil && m.cfg.InteractionNoise != nil {
		m.rhsDelayed(t, y, past, dydt)
		return
	}
	if m.nw > 1 {
		m.curT, m.curY, m.curDydt = t, y, dydt
		m.runner.Run()
		m.curY, m.curDydt = nil, nil
		return
	}
	m.rhsRange(t, y, dydt, 0, m.cfg.N)
}

// Close stops the worker goroutines of a Workers > 1 model. It is safe to
// call on any model (serial models have no pool) and the pool restarts
// transparently if the model is used again afterwards.
func (m *Model) Close() {
	if m.runner != nil {
		m.runner.Close()
	}
}

// rhsRange evaluates the delay-free right-hand side for oscillator rows
// [lo, hi) in one kernel call, which writes ω_i + k·c_i. The frequency
// row is the precomputed ω row unless the batched noise reports the
// chunk loud; then the chunk's ζ slots are overwritten with 2π/(P + ζ)
// (ω where ζ = 0, which is bitwise 2π/(P + 0)) and handed over instead.
// Chunks touch disjoint ranges, so pool workers can run this
// concurrently without synchronization.
//
//pomvet:allocfree
func (m *Model) rhsRange(t float64, y, dydt []float64, lo, hi int) {
	freq := m.omegas
	if m.noise != nil && m.noise.ZetaInto(m.zbuf[lo:hi], lo, t) {
		freq = m.zbuf
		guard := -0.9 * m.period
		for i, z := range freq[lo:hi] {
			f := m.omega
			if z < guard {
				z = guard
			}
			if z != 0 {
				f = mathx.TwoPi / (m.period + z)
			}
			freq[lo+i] = f
		}
	}
	m.coupler.RateRange(dydt, y, freq, m.k, lo, hi)
}

// rhsDelayed is the DDE path: partner phases older than t are read from
// the dense-output history. Delays are per-pair and time-dependent, so
// this path stays scalar; it still walks the flat CSR arrays.
//
//pomvet:allocfree
func (m *Model) rhsDelayed(t float64, y []float64, past ode.Past, dydt []float64) {
	rowPtr, cols := m.flat.RowPtr, m.flat.Cols
	inoise := m.cfg.InteractionNoise
	k := m.k
	for i := range y {
		freq := mathx.TwoPi / (m.period + m.zeta(i, t))
		var coupling float64
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := int(cols[p])
			thj := y[j]
			if tau := inoise.Tau(i, j, t); tau > 0 {
				thj = past.Eval(j, t-tau)
			}
			coupling += m.cfg.Potential.Eval(thj - y[i])
		}
		dydt[i] = freq + k*coupling
	}
}

// Result is a completed POM integration: the recorded rows that phase
// strips and plots draw. Run metrics come from the streaming sinks
// (package sim's accumulators, WaveDetector), run in the solve or
// replayed over these rows with sim.Replay.
type Result struct {
	// Ts are the sample times.
	Ts []float64
	// Theta[k][i] is oscillator i's (unwrapped) phase at Ts[k].
	Theta [][]float64
	// Stats reports the solver work.
	Stats ode.Stats
	// Model echoes the integrated model.
	Model *Model
}

// The solver loop, sample-plan machinery, and sink protocol live in the
// shared sim runtime; Model participates by implementing sim.System (plus
// the Delayed, Tuned, and Releaser extensions). Run is a thin shim over
// sim.Run; streaming runs call sim.RunStream / sim.RunSummaryTo on the
// model directly.

// Dim implements sim.System.
func (m *Model) Dim() int { return m.cfg.N }

// InitialState implements sim.System: θ(0) under the configured initial
// condition.
func (m *Model) InitialState() []float64 { return m.initialState() }

// Eval implements sim.System: the delay-free Eq. (2) right-hand side.
func (m *Model) Eval(t float64, y, dydt []float64) { m.rhs(t, y, nil, dydt) }

// EvalDelayed implements sim.Delayed: partner phases older than t are
// read from the dense-output history.
func (m *Model) EvalDelayed(t float64, y []float64, past ode.Past, dydt []float64) {
	m.rhs(t, y, past, dydt)
}

// MaxDelay implements sim.Delayed; a positive bound routes the
// integration through the DDE driver.
func (m *Model) MaxDelay() float64 {
	if m.cfg.InteractionNoise == nil {
		return 0
	}
	return m.cfg.InteractionNoise.Max()
}

// Solver implements sim.Tuned. The step is capped at a quarter period:
// the noise channels are piecewise-constant on cells of about one
// period, and an unconstrained controller would otherwise grow the step
// so large in quiescent phases that a one-off delay window falls between
// stage evaluations and is silently skipped.
func (m *Model) Solver() sim.Solver {
	return sim.Solver{Atol: m.cfg.Atol, Rtol: m.cfg.Rtol, Hmax: 0.25 * m.period}
}

// Release implements sim.Releaser: the worker pool restarts lazily on
// the next parallel rhs call, so releasing it after every run means a
// Model dropped after Run leaks no goroutines even without an explicit
// Close (sweeps build thousands of models). Direct Eval users keep
// the pool across calls and own the Close.
func (m *Model) Release() {
	if m.nw > 1 {
		m.Close()
	}
}

// Run integrates the model from t = 0 to tEnd, sampling nSamples points
// uniformly (including both endpoints).
func (m *Model) Run(tEnd float64, nSamples int) (*Result, error) {
	res, err := sim.Run(m, tEnd, nSamples)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Result{Ts: res.Ts, Theta: res.Ys, Stats: res.Stats, Model: m}, nil
}

// NormalizedPhases returns the paper's standard view (§3.2): θ_i(t) − ω·t,
// shifted so that the lagger (most delayed oscillator at each sample) is
// the baseline at zero. Rows index samples, columns oscillators.
func (r *Result) NormalizedPhases() [][]float64 {
	omega := r.Model.omega
	out := make([][]float64, len(r.Ts))
	for k, th := range r.Theta {
		row := make([]float64, len(th))
		minv := math.Inf(1)
		for i, v := range th {
			row[i] = v - omega*r.Ts[k]
			if row[i] < minv {
				minv = row[i]
			}
		}
		for i := range row {
			row[i] -= minv
		}
		out[k] = row
	}
	return out
}

// FinalPhases returns the last sampled phase vector.
func (r *Result) FinalPhases() []float64 {
	if len(r.Theta) == 0 {
		return nil
	}
	return r.Theta[len(r.Theta)-1]
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
