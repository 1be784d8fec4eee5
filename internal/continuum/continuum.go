// Package continuum implements the continuum limit of the physical
// oscillator model, which the paper's §6 poses as future work ("if a
// well-defined continuum limit of the model can be found, it could be
// useful in hardware-software co-design").
//
// Replacing the rank index by a continuous coordinate x with lattice
// spacing a, the ±1-stencil coupling term of Eq. (2) becomes
//
//	k·[V(θ(x+a)−θ(x)) + V(θ(x−a)−θ(x))]
//	  = k·a²·V'(0)·θ_xx + O(a⁴)        (small-gradient expansion)
//
// so the field θ(x, t) obeys, to leading order, a reaction–diffusion
// equation θ_t = ω(x, t) + D·θ_xx with D = k·a²·V'(0):
//
//   - the synchronizing potential (V'(0) > 0) yields ordinary diffusion —
//     idle waves spread out and decay, the field flattens
//     (resynchronization);
//   - the desynchronizing potential (V'(0) < 0) yields *anti-diffusion* —
//     the flat state is unstable and the full nonlinear flux selects a
//     finite gradient with a·|θ_x| at the potential's stable zero: the
//     continuum computational wavefront.
//
// Two right-hand sides are provided: Linear (the leading-order PDE) and
// Nonlinear (the full finite-difference flux, which remains well-posed in
// the anti-diffusive regime because the potential saturates). The
// nonlinear flux is Eq. (2)'s coupling sum on a two-partner stencil, so it
// runs through the same kernel as the discrete model, potential.Coupler:
// each FieldSystem builds the stencil's CSR arrays and its frequency row
// once (a ring, or the Neumann mirror whose end rows list their one
// partner twice) and every evaluation is one kernel call that writes
// ω + K·c.
//
// A Field bound to an initial state (Field.System) implements sim.System,
// so continuum relaxation studies route through the same unified runtime
// as the discrete models: sim.RunStream drives the shared accumulator
// sinks, and the sweep/archive machinery works over continuum points
// unchanged.
package continuum

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
)

// Grid is a uniform 1-D spatial grid.
type Grid struct {
	// M is the number of grid points.
	M int
	// A is the lattice spacing (distance between neighboring points; in
	// the discrete-model correspondence, one MPI rank per spacing).
	A float64
	// Periodic selects ring (true) or zero-flux Neumann (false)
	// boundaries.
	Periodic bool
}

// Validate reports configuration errors.
func (g Grid) Validate() error {
	if g.M < 3 {
		return errors.New("continuum: need at least 3 grid points")
	}
	// NaN fails the <= comparison, so check it explicitly: a NaN spacing
	// would silently poison every coordinate and the diffusivity.
	if !(g.A > 0) || math.IsInf(g.A, 0) {
		return fmt.Errorf("continuum: lattice spacing must be positive and finite, got %v", g.A)
	}
	return nil
}

// Length returns the domain length M·a.
func (g Grid) Length() float64 { return float64(g.M) * g.A }

// X returns the coordinate of grid point i.
func (g Grid) X(i int) float64 { return float64(i) * g.A }

// left and right return neighbor indices under the boundary rule.
func (g Grid) left(i int) int {
	if i > 0 {
		return i - 1
	}
	if g.Periodic {
		return g.M - 1
	}
	return 1 // Neumann mirror
}

func (g Grid) right(i int) int {
	if i < g.M-1 {
		return i + 1
	}
	if g.Periodic {
		return 0
	}
	return g.M - 2 // Neumann mirror
}

// Field is a continuum POM configuration.
type Field struct {
	Grid Grid
	// Omega is the local natural frequency field ω(x, t); nil means the
	// constant 2π (unit period everywhere).
	Omega func(x, t float64) float64
	// Potential is V; required for the nonlinear flux, and its V'(0)
	// defines the linear diffusivity.
	Potential potential.Potential
	// K is the per-partner coupling strength k.
	K float64
	// Linear selects the leading-order PDE θ_t = ω + D θ_xx instead of
	// the full nonlinear flux.
	Linear bool
	// Atol and Rtol are solver tolerances (defaults 1e-8/1e-6).
	Atol, Rtol float64
}

// Diffusivity returns D = k·a²·V'(0) of the leading-order PDE.
func (f *Field) Diffusivity() float64 {
	const h = 1e-6
	dv0 := (f.Potential.Eval(h) - f.Potential.Eval(-h)) / (2 * h)
	return f.K * f.Grid.A * f.Grid.A * dv0
}

// FieldSystem is a Field bound to an initial state — the sim.System view
// of the continuum model, and the only way to run it: sim.RunStream and
// the scenario registry integrate it through the unified runtime. It
// owns its coupling kernel and scratch, so several systems built from one
// Field may run concurrently; a single FieldSystem is not safe for
// concurrent use.
type FieldSystem struct {
	f      *Field
	theta0 []float64
	// cols is the two-partner stencil: row i lists left(i) then right(i)
	// at cols[2i], cols[2i+1], so the Neumann mirror rows 0 and M−1 list
	// their interior partner twice.
	cols []int32
	// coupler runs the nonlinear flux over the stencil (nil on the linear
	// path).
	coupler *potential.Coupler
	// diff is the linear path's D/a², fixed at build.
	diff float64
	// freq is the natural-frequency row ω(x_i, t): 2π everywhere, filled
	// at build, or, when omega (the Field's ω field at build) is set,
	// refilled on every evaluation.
	freq  []float64
	omega func(x, t float64) float64
}

// System validates the field configuration and binds it to theta0,
// returning the sim.System the unified runtime integrates.
func (f *Field) System(theta0 []float64) (*FieldSystem, error) {
	if err := f.Grid.Validate(); err != nil {
		return nil, err
	}
	if f.Potential == nil {
		return nil, errors.New("continuum: nil potential")
	}
	if f.K < 0 {
		return nil, errors.New("continuum: negative coupling")
	}
	// A NaN/Inf coupling passes the sign check but produces a NaN field on
	// the very first right-hand-side call; reject it at the boundary.
	if math.IsNaN(f.K) || math.IsInf(f.K, 0) {
		return nil, fmt.Errorf("continuum: non-finite coupling %v", f.K)
	}
	if len(theta0) != f.Grid.M {
		return nil, fmt.Errorf("continuum: theta0 has %d points, grid %d", len(theta0), f.Grid.M)
	}
	g := f.Grid
	cols := make([]int32, 2*g.M)
	for i := 0; i < g.M; i++ {
		cols[2*i], cols[2*i+1] = int32(g.left(i)), int32(g.right(i))
	}
	s := &FieldSystem{
		f:      f,
		theta0: append([]float64(nil), theta0...),
		cols:   cols,
		diff:   f.Diffusivity() / (g.A * g.A),
		freq:   make([]float64, g.M),
		omega:  f.Omega,
	}
	if s.omega == nil {
		for i := range s.freq {
			s.freq[i] = mathx.TwoPi
		}
	}
	if !f.Linear {
		rowPtr := make([]int32, g.M+1)
		for i := range rowPtr {
			rowPtr[i] = int32(2 * i)
		}
		s.coupler = potential.NewCoupler(f.Potential, rowPtr, cols)
	}
	return s, nil
}

// Dim implements sim.System.
func (s *FieldSystem) Dim() int { return s.f.Grid.M }

// InitialState implements sim.System.
func (s *FieldSystem) InitialState() []float64 { return s.theta0 }

// Eval implements sim.System: ω(x, t) + K·c_i with c_i the nonlinear
// flux V(θ_left − θ_i) + V(θ_right − θ_i), written whole by the shared
// coupling kernel, or ω(x, t) + D·θ_xx on the linear path.
//
//pomvet:allocfree
func (s *FieldSystem) Eval(t float64, y, dydt []float64) {
	freq := s.freq
	if s.omega != nil {
		for i := range freq {
			freq[i] = s.omega(s.f.Grid.X(i), t)
		}
	}
	if s.f.Linear {
		cols := s.cols
		for i := range freq {
			lap := y[cols[2*i]] + y[cols[2*i+1]] - 2*y[i]
			dydt[i] = freq[i] + s.diff*lap
		}
		return
	}
	s.coupler.RateRange(dydt, y, freq, s.f.K, 0, len(freq))
}

// Solver implements sim.Tuned. Diffusion stability is handled by the
// error controller, but the step is capped against frozen-noise-style ω
// fields just as the discrete model does.
func (s *FieldSystem) Solver() sim.Solver {
	return sim.Solver{Atol: s.f.Atol, Rtol: s.f.Rtol, Hmax: 0.25}
}
