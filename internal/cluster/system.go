package cluster

import (
	"errors"
	"sort"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TraceSystem adapts a completed discrete-event simulation to the
// unified sim.System contract, so cluster experiments ride the same
// streaming / sweep / archive / scenario stack as the ODE families:
// sweep.RunReduce reduces cluster sweeps online, sweep.RunArchive
// persists and resumes them bitwise, and cmd/pomsim runs them from a
// scenario JSON.
//
// The facade replays the trace as a phase field: rank i's state is
// θ_i(t) = 2π · p_i(t), where p_i is the continuous iteration progress
// (trace.Progress — completed iterations, linearly interpolated within
// the current iteration), the exact trace-side analogue of the
// oscillator phase. Eval exposes the piecewise-constant progress rate,
// so the ODE runtime reconstructs the progress curves to solver
// accuracy; in the bulk-synchronous steady state the rate is constant
// and the replay is exact. The shared sinks then read naturally: phase
// spread is 2π × the iteration-skew spread, the gap accumulator
// measures the computational wavefront in units of 2π·iterations, and
// an archive record stores the full skew evolution.
//
// A TraceSystem is read-only over the trace and deterministic: records
// archived from it depend only on the trace, never on worker count —
// the property sweep.RunArchive's bitwise resume relies on.
type TraceSystem struct {
	iterEnds [][]float64
	end      float64
	hmax     float64
}

// NewTraceSystem wraps a completed execution trace. The trace must hold
// at least one rank and one iteration mark; ranks that recorded no
// marks replay as flat (zero-rate) phases.
func NewTraceSystem(tr *trace.Trace) (*TraceSystem, error) {
	if tr == nil {
		return nil, errors.New("cluster: nil trace")
	}
	if tr.N() == 0 {
		return nil, errors.New("cluster: trace has no ranks")
	}
	marks := 0
	minMean := 0.0
	for _, e := range tr.IterEnds {
		marks += len(e)
		if len(e) >= 2 {
			mean := (e[len(e)-1] - e[0]) / float64(len(e)-1)
			if mean > 0 && (minMean == 0 || mean < minMean) {
				minMean = mean
			}
		}
	}
	if marks == 0 || tr.End <= 0 {
		return nil, errors.New("cluster: trace has no iteration marks")
	}
	// The step cap: half the fastest rank's mean iteration time, so the
	// solver never skips an entire iteration's rate plateau; traces with
	// single-iteration ranks only fall back to a quarter of the makespan.
	hmax := tr.End / 4
	if minMean > 0 {
		hmax = minMean / 2
	}
	return &TraceSystem{iterEnds: tr.IterEnds, end: tr.End, hmax: hmax}, nil
}

// System wraps the result's trace as a sim.System — the facade cluster
// scenario sweeps integrate through.
func (r *Result) System() (*TraceSystem, error) { return NewTraceSystem(r.Trace) }

// Dim implements sim.System.
func (s *TraceSystem) Dim() int { return len(s.iterEnds) }

// InitialState implements sim.System: every rank starts at phase 0.
func (s *TraceSystem) InitialState() []float64 {
	return make([]float64, len(s.iterEnds))
}

// Eval implements sim.System: dθ_i/dt = 2π · (iteration rate of rank i
// at time t), the exact derivative of the interpolated trace progress.
// Ranks past their last iteration (and degenerate zero-length
// iterations) hold at zero rate, so the phase field freezes at
// 2π·iters once the program completes.
func (s *TraceSystem) Eval(t float64, _, dydt []float64) {
	for i, ends := range s.iterEnds {
		dydt[i] = 0
		idx := sort.Search(len(ends), func(k int) bool { return ends[k] > t })
		if idx == len(ends) {
			continue
		}
		var prev float64
		if idx > 0 {
			prev = ends[idx-1]
		}
		if dur := ends[idx] - prev; dur > 0 {
			dydt[i] = mathx.TwoPi / dur
		}
	}
}

// Solver implements sim.Tuned: rate plateaus are replayed data, not a
// stiff flow — relaxed tolerances with the step capped below the
// fastest iteration time (see NewTraceSystem).
func (s *TraceSystem) Solver() sim.Solver {
	return sim.Solver{Atol: 1e-6, Rtol: 1e-6, Hmax: s.hmax}
}

// SuggestTEnd reports the trace makespan as the natural t_end for specs
// that leave the run length unset (the scenario layer's suggestion
// hook: the makespan is only known after the event simulation ran).
func (s *TraceSystem) SuggestTEnd() float64 { return s.end }
