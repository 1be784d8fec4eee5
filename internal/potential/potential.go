// Package potential implements the interaction potentials of the physical
// oscillator model (POM). The potential V(Δθ) couples each oscillator to
// its communication partners; its shape selects between the synchronizing
// behaviour of resource-scalable parallel programs and the desynchronizing
// behaviour of resource-bottlenecked (memory- or communication-bound)
// programs (paper §5.2, Fig. 1a).
//
// Sign convention: V acts on Δθ = θ_j − θ_i from the perspective of
// oscillator i. A positive V for positive Δθ pulls i forward toward the
// leading j (attraction).
package potential

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Potential is an interaction potential V(Δθ) evaluated on the phase
// difference Δθ = θ_j − θ_i.
type Potential interface {
	// Eval returns V(Δθ).
	Eval(dtheta float64) float64
	// Name returns a short identifier for tables and plots.
	Name() string
}

// Batch is implemented by potentials that can evaluate many phase
// differences in one call. The oscillator model's right-hand side gathers
// all phase differences of a row block into one buffer and issues a single
// EvalInto per block, so the per-pair cost is a straight-line float loop
// with no interface dispatch.
type Batch interface {
	Potential
	// EvalInto writes V(dtheta[i]) into dst[i] for every i. dst and dtheta
	// must have equal length and may alias (in-place evaluation is legal).
	EvalInto(dst, dtheta []float64)
}

// genericBatch adapts any Potential to Batch with an elementwise loop —
// the fallback for custom potentials that only implement Eval.
type genericBatch struct{ Potential }

func (g genericBatch) EvalInto(dst, dtheta []float64) {
	for i, d := range dtheta {
		dst[i] = g.Potential.Eval(d)
	}
}

// BatchOf returns p itself when it already implements Batch, and an
// elementwise adapter otherwise, so callers can always evaluate through
// the slice API.
func BatchOf(p Potential) Batch {
	if b, ok := p.(Batch); ok {
		return b
	}
	return genericBatch{p}
}

// Analyzable potentials expose the structural features the paper discusses:
// the stable fixed point of the pairwise dynamics and the odd symmetry.
type Analyzable interface {
	Potential
	// StableZero returns the phase difference at which a pair of coupled
	// oscillators settles: 0 for synchronizing potentials, the first
	// positive zero (2σ/3 for Desync) for desynchronizing ones.
	StableZero() float64
}

// Tanh is the synchronizing potential of Eq. (3):
//
//	V(Δθ) = tanh(Δθ)
//
// It is attractive for every phase difference — unlike the Kuramoto sine it
// has no other zeros and admits no phase slips — so any disturbance decays
// and the system snaps back into lockstep, mimicking resource-scalable
// bulk-synchronous programs.
type Tanh struct{}

// Eval implements Potential.
func (Tanh) Eval(d float64) float64 { return math.Tanh(d) }

// EvalInto implements Batch.
func (Tanh) EvalInto(dst, dtheta []float64) {
	mathx.TanhInto(dst, dtheta)
}

// Name implements Potential.
func (Tanh) Name() string { return "tanh" }

// StableZero implements Analyzable: the only equilibrium is lockstep.
func (Tanh) StableZero() float64 { return 0 }

// Desync is the desynchronizing potential of Eq. (4):
//
//	V(Δθ) = -sin(3π/(2σ)·Δθ)   for |Δθ| < σ
//	V(Δθ) = sgn(Δθ)            otherwise
//
// evaluated on Δθ = θ_j − θ_i, matching the blue curve of Fig. 1(a): the
// potential descends through zero at the origin (short-range repulsion —
// lockstep is unstable and any disturbance grows), rises through its first
// stable zero at 2σ/3, and saturates at ±1 beyond the horizon (long-range
// attraction). Neighboring phases therefore settle with gaps of 2σ/3: the
// broken-symmetry "computational wavefront" state of memory-bound
// programs. σ is the interaction horizon; small σ means stiff, nearly
// synchronized systems, large σ strong desynchronization. (The paper
// writes Eq. (4) with argument θ_i − θ_j; Fig. 1(a) fixes the convention
// used here.)
type Desync struct {
	// Sigma is the interaction horizon σ > 0.
	Sigma float64
}

// NewDesync returns the bottlenecked-program potential with horizon sigma.
// It panics if sigma <= 0 (a configuration error).
func NewDesync(sigma float64) Desync {
	if sigma <= 0 {
		panic("potential: Desync needs sigma > 0")
	}
	return Desync{Sigma: sigma}
}

// Eval implements Potential.
func (p Desync) Eval(d float64) float64 {
	if math.Abs(d) < p.Sigma {
		return -math.Sin(3 * math.Pi / (2 * p.Sigma) * d)
	}
	if d > 0 {
		return 1
	}
	return -1
}

// EvalInto implements Batch: classify every element up front (dst may
// alias dtheta, so the original values are consumed in this first pass),
// writing the sine argument w·Δθ inside the horizon and ∓π/2 — whose
// sine is exactly ∓1 — for the saturated branches. One batched sine pass
// and a negation then reproduce Eval bit-for-bit.
func (p Desync) EvalInto(dst, dtheta []float64) {
	w := 3 * math.Pi / (2 * p.Sigma)
	for i, d := range dtheta {
		dst[i] = desyncArg(d, w, p.Sigma)
	}
	mathx.SinInto(dst, dst)
	for i, v := range dst {
		dst[i] = -v
	}
}

// desyncArg maps Δθ to the sine argument whose negated sine is Desync's
// V(Δθ): w·Δθ inside the horizon σ, ∓π/2 on the saturated branches.
func desyncArg(d, w, sigma float64) float64 {
	switch {
	case math.Abs(d) < sigma:
		return w * d
	case d > 0:
		return -math.Pi / 2 // -sin(-π/2) = +1
	default:
		return math.Pi / 2 // -sin(π/2) = -1
	}
}

// Name implements Potential.
func (p Desync) Name() string { return fmt.Sprintf("desync(σ=%g)", p.Sigma) }

// StableZero implements Analyzable: the first zero with negative slope of
// the pairwise force, at 2σ/3 (paper §5.2.2).
func (p Desync) StableZero() float64 { return 2 * p.Sigma / 3 }

// KuramotoSine is the classic Kuramoto interaction sin(Δθ) of Eq. (1). It
// is periodic — it admits phase slips (differences of multiples of 2π are
// dynamically equivalent) and has unstable zeros at odd multiples of π —
// which is exactly why the paper rejects it for parallel programs. It is
// retained as the baseline comparator.
type KuramotoSine struct{}

// Eval implements Potential.
func (KuramotoSine) Eval(d float64) float64 { return math.Sin(d) }

// EvalInto implements Batch via the batched sine kernel: identical
// results to per-pair math.Sin calls, evaluated as one straight-line
// loop over the packed buffer.
func (KuramotoSine) EvalInto(dst, dtheta []float64) {
	mathx.SinInto(dst, dtheta)
}

// Name implements Potential.
func (KuramotoSine) Name() string { return "kuramoto-sine" }

// StableZero implements Analyzable.
func (KuramotoSine) StableZero() float64 { return 0 }

// Linear is the unsaturated potential V(Δθ) = Δθ; a harmonic spring
// coupling useful for analytic sanity checks (the resulting system is
// linear and solvable in closed form).
type Linear struct{}

// Eval implements Potential.
func (Linear) Eval(d float64) float64 { return d }

// EvalInto implements Batch.
func (Linear) EvalInto(dst, dtheta []float64) { copy(dst, dtheta) }

// Name implements Potential.
func (Linear) Name() string { return "linear" }

// StableZero implements Analyzable.
func (Linear) StableZero() float64 { return 0 }

// Clipped saturates another potential at ±Limit, modeling the bounded
// "pull" a blocked MPI process can exert per cycle.
type Clipped struct {
	Inner Potential
	Limit float64
}

// Eval implements Potential.
func (c Clipped) Eval(d float64) float64 {
	v := c.Inner.Eval(d)
	if v > c.Limit {
		return c.Limit
	}
	if v < -c.Limit {
		return -c.Limit
	}
	return v
}

// EvalInto implements Batch. The inner potential's batch path is used
// when available, followed by an in-place clamp pass.
func (c Clipped) EvalInto(dst, dtheta []float64) {
	if b, ok := c.Inner.(Batch); ok {
		b.EvalInto(dst, dtheta)
		for i, v := range dst {
			if v > c.Limit {
				dst[i] = c.Limit
			} else if v < -c.Limit {
				dst[i] = -c.Limit
			}
		}
		return
	}
	for i, d := range dtheta {
		dst[i] = c.Eval(d)
	}
}

// Name implements Potential.
func (c Clipped) Name() string { return fmt.Sprintf("clipped(%s,±%g)", c.Inner.Name(), c.Limit) }

// Func adapts a plain function to the Potential interface.
type Func struct {
	F  func(float64) float64
	ID string
}

// Eval implements Potential.
func (f Func) Eval(d float64) float64 { return f.F(d) }

// Name implements Potential.
func (f Func) Name() string { return f.ID }

// Sample evaluates p on n evenly spaced points of [lo, hi] and returns the
// abscissae and values; used to regenerate Fig. 1(a).
func Sample(p Potential, lo, hi float64, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	if n == 1 {
		xs[0] = lo
		ys[0] = p.Eval(lo)
		return xs, ys
	}
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		x := lo + float64(i)*step
		xs[i] = x
		ys[i] = p.Eval(x)
	}
	return xs, ys
}

// FindZeros locates sign changes of p on [lo, hi] by scanning n grid cells
// and refining each bracketed root with bisection to tolerance tol.
func FindZeros(p Potential, lo, hi float64, n int, tol float64) []float64 {
	var zeros []float64
	prevX := lo
	prevV := p.Eval(lo)
	step := (hi - lo) / float64(n)
	for i := 1; i <= n; i++ {
		x := lo + float64(i)*step
		v := p.Eval(x)
		switch {
		case v == 0:
			zeros = append(zeros, x)
		case prevV*v < 0:
			a, b := prevX, x
			fa := prevV
			for b-a > tol {
				m := (a + b) / 2
				fm := p.Eval(m)
				if fa*fm <= 0 {
					b = m
				} else {
					a, fa = m, fm
				}
			}
			zeros = append(zeros, (a+b)/2)
		}
		prevX, prevV = x, v
	}
	return zeros
}
