package stats

import (
	"math"

	"repro/internal/mathx"
)

// orderChunk is how many phases OrderParameter hands mathx.SincosInto at
// a time, through two stack arrays.
const orderChunk = 64

// OrderParameter returns the Kuramoto order parameter r ∈ [0, 1] and the
// mean phase ψ of a set of oscillator phases:
//
//	r·e^{iψ} = (1/N) Σ_j e^{iθ_j}
//
// r = 1 means perfect synchrony, r ≈ 0 a uniformly spread (incoherent or
// perfectly desynchronized) phase distribution. This is the classic global
// synchrony measure used to compare POM against the plain Kuramoto model.
// The sines and cosines come from mathx.SincosInto in chunks and are
// summed in element order, so r and ψ carry the bits of a math.Sincos
// loop.
//
//pomvet:allocfree
func OrderParameter(theta []float64) (r, psi float64) {
	n := len(theta)
	if n == 0 {
		return 0, 0
	}
	var s, c [orderChunk]float64
	var sx, sy float64
	for lo := 0; lo < n; lo += orderChunk {
		th := theta[lo:min(lo+orderChunk, n)]
		ss, cc := s[:len(th)], c[:len(th)]
		mathx.SincosInto(ss, cc, th)
		for i, v := range ss {
			sy += v
			sx += cc[i]
		}
	}
	sx /= float64(n)
	sy /= float64(n)
	return math.Hypot(sx, sy), math.Atan2(sy, sx)
}

// PhaseSpread returns the maximum pairwise spread max θ − min θ of an
// unwrapped phase vector. For POM (non-periodic potentials, unwrapped
// phases) this is the natural desynchronization measure: zero in lockstep,
// and settling at (N−1)·2σ/3 in the fully developed computational
// wavefront of the desynchronizing potential.
//
//pomvet:allocfree
func PhaseSpread(theta []float64) float64 {
	lo, hi, err := mathx.MinMax(theta)
	if err != nil {
		return 0
	}
	return hi - lo
}

// AdjacentDiffs fills dst with θ_{i+1} − θ_i and returns it.
func AdjacentDiffs(dst, theta []float64) []float64 {
	return mathx.Diff(dst, theta)
}
