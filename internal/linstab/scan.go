package linstab

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Scan is a linear-stability parameter scan packaged as a sim.System, so
// eigenvalue studies ride the same streaming / sweep / archive stack as
// the dynamical families: sweep.RunReduce reduces scans with O(state)
// memory, sweep.RunArchive persists and resumes them, and cmd/pomsim
// runs them from a scenario JSON.
//
// The scan maps run time t ∈ [0, tEnd] linearly onto the scanned
// parameter u ∈ [From, To]. The per-knot rows (the eigen-threshold
// summary [λ_max, #unstable, #zero-modes], or the full ascending
// spectrum) are precomputed on a uniform knot grid by NewScan; the
// System replays their piecewise-linear interpolant through the ODE
// runtime by exposing the exact piecewise-constant derivative. Knots are
// where the physics happens — the eigensolves run once, at Build time —
// and the replay reproduces the interpolant to ~1e-5 absolute (solver
// quadrature across the derivative jumps at knots; see Solver). The
// initial row is exact by construction.
type Scan struct {
	h    float64     // knot spacing in t
	vals [][]float64 // vals[k] is the row at knot k
}

// NewScan precomputes a scan: eval is called at points uniform values of
// the scan parameter u from from to to (inclusive) and must return rows
// of a fixed width. tEnd is the run length the scan is replayed over
// (the scenario layer passes the resolved run control).
func NewScan(eval func(u float64) ([]float64, error), from, to float64, points int, tEnd float64) (*Scan, error) {
	if eval == nil {
		return nil, errors.New("linstab: nil scan evaluator")
	}
	if points < 2 {
		return nil, fmt.Errorf("linstab: scan needs at least 2 points, got %d", points)
	}
	if !(to > from) || math.IsInf(from, 0) || math.IsInf(to, 0) {
		return nil, fmt.Errorf("linstab: scan range [%v, %v] must be finite and increasing", from, to)
	}
	if !(tEnd > 0) || math.IsInf(tEnd, 0) {
		return nil, fmt.Errorf("linstab: scan tEnd must be positive and finite, got %v", tEnd)
	}
	s := &Scan{
		h:    tEnd / float64(points-1),
		vals: make([][]float64, points),
	}
	for k := 0; k < points; k++ {
		u := from + (to-from)*float64(k)/float64(points-1)
		if k == points-1 {
			u = to
		}
		row, err := eval(u)
		if err != nil {
			return nil, fmt.Errorf("linstab: scan point %d (u=%v): %w", k, u, err)
		}
		if len(row) == 0 || (k > 0 && len(row) != len(s.vals[0])) {
			return nil, fmt.Errorf("linstab: scan rows must have one fixed nonzero width")
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("linstab: non-finite scan value at point %d", k)
			}
		}
		s.vals[k] = row
	}
	return s, nil
}

// Dim implements sim.System.
func (s *Scan) Dim() int { return len(s.vals[0]) }

// InitialState implements sim.System: the row at the scan start.
func (s *Scan) InitialState() []float64 { return s.vals[0] }

// Eval implements sim.System: the derivative of the piecewise-linear
// knot interpolant, constant within each knot interval.
func (s *Scan) Eval(t float64, _, dydt []float64) {
	k := int(t / s.h)
	if k < 0 {
		k = 0
	}
	if k >= len(s.vals)-1 {
		k = len(s.vals) - 2
	}
	lo, hi := s.vals[k], s.vals[k+1]
	for i := range dydt {
		dydt[i] = (hi[i] - lo[i]) / s.h
	}
}

// Solver implements sim.Tuned: the step is capped at a quarter of the
// knot spacing. A derivative jump that falls between two quadrature
// nodes of a step is invisible to the embedded error estimate (both
// orders integrate the same wrong constant), so the cap — not the
// tolerance — is what bounds the per-knot replay error; at h/4 the
// accumulated deviation from the exact interpolant stays ~1e-5 over
// tens of knots.
func (s *Scan) Solver() sim.Solver {
	return sim.Solver{Atol: 1e-9, Rtol: 1e-9, Hmax: s.h / 4}
}

// SummaryRow returns the eigen-threshold summary row of a classified
// state: [λ_max, #unstable, #zero-modes]. This is the 3-wide row layout
// scan systems stream by default.
func SummaryRow(cl *Classification) []float64 {
	return []float64{cl.MaxEigenvalue, float64(cl.Unstable), float64(cl.ZeroModes)}
}
