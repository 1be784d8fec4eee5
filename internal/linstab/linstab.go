// Package linstab performs linear stability analysis of the physical
// oscillator model's steady states — the tool for the paper's §6 open
// question of whether the symmetry-breaking transition of bottlenecked
// programs is connected to a Goldstone mode.
//
// Linearizing Eq. (2) around a frequency-locked state θ* (all oscillators
// advancing at a common rate, constant gaps) gives δθ' = J·δθ with
//
//	J_ij = k·T_ij·V'(θ*_j − θ*_i)   (i ≠ j),
//	J_ii = −k·Σ_j T_ij·V'(θ*_j − θ*_i),
//
// where k is the effective per-partner coupling. For odd potentials V the
// derivative V' is even, so J is symmetric whenever the topology is; its
// spectrum classifies the state:
//
//   - all eigenvalues < 0 except a single zero → linearly stable, with the
//     zero eigenvalue the global phase shift (the Goldstone mode of the
//     broken time-translation/phase symmetry);
//   - any positive eigenvalue → unstable (lockstep under the
//     desynchronizing potential).
//
// Eigenvalues are computed with the cyclic Jacobi rotation method —
// slow but simple, robust, and exact enough for the N ≤ a-few-hundred
// systems of interest.
package linstab

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/potential"
	"repro/internal/topology"
)

// DerivStep is the central-difference step used to evaluate V'.
const DerivStep = 1e-6

// Jacobian builds the linearization of the POM around the phase
// configuration theta. k is the effective per-partner coupling
// (Model.Coupling()). The topology must be symmetric, otherwise the
// Jacobi eigensolver below would not apply; asymmetric stencils return an
// error.
func Jacobian(tp *topology.Topology, pot potential.Potential, theta []float64, k float64) (*linalg.Dense, error) {
	if tp == nil || pot == nil {
		return nil, errors.New("linstab: nil topology or potential")
	}
	n := tp.N
	if len(theta) != n {
		return nil, fmt.Errorf("linstab: theta has %d entries, topology %d", len(theta), n)
	}
	if !tp.IsSymmetric() {
		return nil, errors.New("linstab: topology must be symmetric for spectral analysis")
	}
	dV := func(d float64) float64 {
		return (pot.Eval(d+DerivStep) - pot.Eval(d-DerivStep)) / (2 * DerivStep)
	}
	j := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		var diag float64
		tp.T.Row(i, func(jj int, v float64) {
			w := k * v * dV(theta[jj]-theta[i])
			j.Set(i, jj, w)
			diag -= w
		})
		j.Set(i, i, diag)
	}
	return j, nil
}

// SymEig computes all eigenvalues of a symmetric matrix with the cyclic
// Jacobi method, returned in ascending order. It returns an error when
// the matrix is not square or not symmetric (tolerance scaled to the
// matrix norm), or when the iteration fails to converge.
func SymEig(m *linalg.Dense) ([]float64, error) {
	r, c := m.Dims()
	if r != c {
		return nil, errors.New("linstab: matrix not square")
	}
	scale := m.Frobenius()
	if !m.IsSymmetric(1e-9 * math.Max(scale, 1)) {
		return nil, errors.New("linstab: matrix not symmetric")
	}
	a := m.Clone()
	n := r
	// Row views of the working copy: the rotations below walk row slices
	// directly, with the element operations and their order unchanged.
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = a.Row(i)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i, ri := range rows {
			for _, v := range ri[i+1:] {
				off += v * v
			}
		}
		if math.Sqrt(2*off) <= 1e-12*math.Max(scale, 1) {
			eigs := make([]float64, n)
			for i := range eigs {
				eigs[i] = rows[i][i]
			}
			sort.Float64s(eigs)
			return eigs, nil
		}
		for p := 0; p < n-1; p++ {
			rp := rows[p]
			for q := p + 1; q < n; q++ {
				rq := rows[q]
				apq := rp[q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := rp[p], rq[q]
				// Rotation angle (Golub & Van Loan §8.5).
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				// Apply the rotation to columns p and q, then rows p and q.
				for _, ri := range rows {
					aip, aiq := ri[p], ri[q]
					ri[p] = cth*aip - sth*aiq
					ri[q] = sth*aip + cth*aiq
				}
				rq = rq[:len(rp)]
				for i, api := range rp {
					aqi := rq[i]
					rp[i] = cth*api - sth*aqi
					rq[i] = sth*api + cth*aqi
				}
			}
		}
	}
	return nil, errors.New("linstab: Jacobi iteration did not converge")
}

// Classification summarizes the stability of a steady state.
type Classification struct {
	// Eigenvalues in ascending order.
	Eigenvalues []float64
	// ZeroModes counts eigenvalues with |λ| ≤ ZeroTol·scale: the neutral
	// directions. A frequency-locked POM state always has at least one —
	// the uniform phase shift.
	ZeroModes int
	// Unstable counts strictly positive eigenvalues.
	Unstable int
	// Stable reports Unstable == 0 and ZeroModes == 1: linearly stable up
	// to the Goldstone mode.
	Stable bool
	// MaxEigenvalue is the largest eigenvalue (growth rate of the most
	// unstable mode, or the slowest relaxation rate when negative).
	MaxEigenvalue float64
}

// ZeroTol is the relative tolerance classifying an eigenvalue as a zero
// mode.
const ZeroTol = 1e-7

// Classify computes and classifies the spectrum of the POM linearization
// around theta.
func Classify(tp *topology.Topology, pot potential.Potential, theta []float64, k float64) (*Classification, error) {
	j, err := Jacobian(tp, pot, theta, k)
	if err != nil {
		return nil, err
	}
	eigs, err := SymEig(j)
	if err != nil {
		return nil, err
	}
	scale := math.Max(j.Frobenius(), 1e-30)
	cl := &Classification{Eigenvalues: eigs}
	for _, l := range eigs {
		switch {
		case math.Abs(l) <= ZeroTol*scale:
			cl.ZeroModes++
		case l > 0:
			cl.Unstable++
		}
	}
	cl.MaxEigenvalue = eigs[len(eigs)-1]
	cl.Stable = cl.Unstable == 0 && cl.ZeroModes == 1
	return cl, nil
}

// LockstepState returns the synchronized configuration θ = 0.
func LockstepState(n int) []float64 { return make([]float64, n) }

// WavefrontState returns the uniform-gap configuration θ_i = i·gap — the
// developed computational wavefront when gap is the potential's stable
// zero.
func WavefrontState(n int, gap float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * gap
	}
	return out
}
