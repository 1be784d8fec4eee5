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
// loop. Callers that need r alone use OrderR.
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
		sx, sy = addSincos(sx, sy, ss, cc)
	}
	sx /= float64(n)
	sy /= float64(n)
	return math.Hypot(sx, sy), math.Atan2(sy, sx)
}

// OrderR returns OrderParameter's r alone, bit for bit, without the
// Atan2 for ψ. sin and cos are caller scratch of at least len(theta)
// elements; OrderR overwrites their first len(theta) entries.
//
//pomvet:allocfree
func OrderR(theta, sin, cos []float64) float64 {
	var r [1]float64
	OrderRBlock(r[:], theta, sin, cos)
	return r[0]
}

// OrderRBlock writes OrderR of each row of a row-major block into r:
// rows holds len(r) rows of equal width. One SincosInto call covers the
// whole block, so the rows' independent sincos, sum and Hypot chains
// overlap instead of running one after another. sin and cos are caller
// scratch of at least len(rows) elements. An empty row's r is 0.
//
//pomvet:allocfree
func OrderRBlock(r, rows, sin, cos []float64) {
	if len(r) == 0 || len(rows) == 0 {
		clear(r)
		return
	}
	w := len(rows) / len(r)
	sin, cos = sin[:len(rows)], cos[:len(rows)]
	mathx.SincosInto(sin, cos, rows)
	for j := range r {
		sx, sy := addSincos(0, 0, sin[j*w:(j+1)*w], cos[j*w:(j+1)*w])
		r[j] = math.Hypot(sx/float64(w), sy/float64(w))
	}
}

// addSincos adds sin and cos (of equal length) to sy and sx in element
// order: the one sum loop behind OrderParameter and OrderRBlock, so both
// carry the bits of a math.Sincos loop.
//
//pomvet:allocfree
func addSincos(sx, sy float64, sin, cos []float64) (float64, float64) {
	cos = cos[:len(sin)]
	for i, v := range sin {
		sy += v
		sx += cos[i]
	}
	return sx, sy
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
