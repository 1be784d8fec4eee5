// Package noise implements the two noise channels of the physical
// oscillator model (paper §3.1):
//
//   - process-local noise ζ_i(t): a jitter added to the compute–communicate
//     period of oscillator i, which models OS noise and load imbalance and
//     implements the paper's one-off delay injections (extra workload on
//     one rank);
//   - interaction noise τ_ij(t): a random delay on the phase information an
//     oscillator receives from partner j, modeling varying communication
//     time (the delay term θ_j(t−τ_ij(t)) of Eq. 2).
//
// All processes are *frozen noise*: deterministic functions of (rank, t)
// built by hashing the cell index of a refresh grid. A right-hand side
// evaluated repeatedly at nearby times by an adaptive ODE solver therefore
// sees a consistent, piecewise-constant signal — injecting fresh random
// numbers per evaluation would break the embedded error estimate.
package noise

import (
	"math"

	"repro/internal/stats"
)

// Local is a process-local noise process ζ_i(t), in the same time units as
// the oscillator period.
type Local interface {
	// Zeta returns ζ_i(t) for oscillator i at time t.
	Zeta(i int, t float64) float64
}

// Batch is implemented by local noises that can evaluate ζ for a block
// of consecutive oscillators in one call. The oscillator model's
// right-hand side asks for each row chunk's noise at once instead of
// dispatching one Zeta call per row, and skips its frequency pass while
// the chunk is quiet.
type Batch interface {
	Local
	// ZetaInto writes ζ_{lo+k}(t) into dst[k] for every k, bit-for-bit
	// what Zeta(lo+k, t) returns, and reports whether the block is loud.
	// false promises that every dst[k] is ±0; true may still come with an
	// all-zero block. NaN counts as nonzero.
	ZetaInto(dst []float64, lo int, t float64) bool
}

// elementwise adapts any Local to Batch with a per-row loop — the
// fallback for custom noises that only implement Zeta.
type elementwise struct{ Local }

//pomvet:allocfree
func (e elementwise) ZetaInto(dst []float64, lo int, t float64) bool {
	loud := false
	for k := range dst {
		dst[k] = e.Local.Zeta(lo+k, t)
		loud = loud || dst[k] != 0
	}
	return loud
}

// BatchOf returns l itself when it already implements Batch, and an
// elementwise adapter otherwise.
func BatchOf(l Local) Batch {
	if b, ok := l.(Batch); ok {
		return b
	}
	return elementwise{l}
}

// Interaction is an interaction noise process τ_ij(t) ≥ 0.
type Interaction interface {
	// Tau returns the communication delay τ_ij(t) applied to the phase
	// oscillator i reads from partner j.
	Tau(i, j int, t float64) float64
	// Max returns an upper bound on the delay, used to bound the DDE
	// history window (0 means no delay anywhere).
	Max() float64
}

// None is the absence of noise on both channels.
type None struct{}

// Zeta implements Local.
func (None) Zeta(int, float64) float64 { return 0 }

// Tau implements Interaction.
func (None) Tau(int, int, float64) float64 { return 0 }

// Max implements Interaction.
func (None) Max() float64 { return 0 }

// hash64 mixes a cell key into 64 well-distributed bits (SplitMix64
// finalizer over a seeded combination).
func hash64(seed uint64, i int, cell int64, salt uint64) uint64 {
	z := seed ^ 0x9e3779b97f4a7c15
	z ^= uint64(i+1) * 0xbf58476d1ce4e5b9
	z ^= uint64(cell) * 0x94d049bb133111eb
	z ^= salt * 0xd6e8feb86659fd93
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashUniform returns a deterministic uniform in (0, 1) for the cell.
func hashUniform(seed uint64, i int, cell int64, salt uint64) float64 {
	u := float64(hash64(seed, i, cell, salt)>>11) / (1 << 53)
	// Keep strictly inside (0,1) for inverse-CDF transforms.
	if u <= 0 {
		u = 0.5 / (1 << 53)
	}
	return u
}

// Dist selects the jitter amplitude distribution.
type Dist int

const (
	// Gaussian draws ζ ~ N(0, σ²) (clamped below so the period stays
	// positive).
	Gaussian Dist = iota
	// UniformSym draws ζ ~ U(−a, a).
	UniformSym
	// Exponential draws ζ ~ Exp(1/a) − so strictly positive slowdowns with
	// mean a, the common model for OS noise.
	Exponential
)

// Jitter is frozen per-process period noise: within each refresh interval
// of length Refresh the value is constant; across cells and ranks it is
// independent.
type Jitter struct {
	// Dist selects the distribution family.
	Dist Dist
	// Amp is the distribution scale: σ for Gaussian, half-width for
	// UniformSym, mean for Exponential.
	Amp float64
	// Refresh is the cell length in time units (typically one period).
	Refresh float64
	// Seed makes the stream reproducible.
	Seed uint64
	// MinPeriodGuard bounds ζ from below (> −period) so the oscillator
	// frequency stays positive; the POM driver sets it automatically.
	MinPeriodGuard float64
}

// Zeta implements Local.
func (j Jitter) Zeta(i int, t float64) float64 {
	if j.Amp == 0 || j.Refresh <= 0 {
		return 0
	}
	cell := int64(math.Floor(t / j.Refresh))
	u := hashUniform(j.Seed, i, cell, 0x5eed)
	var z float64
	switch j.Dist {
	case UniformSym:
		z = j.Amp * (2*u - 1)
	case Exponential:
		z = -j.Amp * math.Log(1-u)
	default:
		z = j.Amp * stats.InvNormalCDF(u)
	}
	if j.MinPeriodGuard > 0 && z < -j.MinPeriodGuard {
		z = -j.MinPeriodGuard
	}
	return z
}

// Imbalance is static per-rank load imbalance: ζ_i(t) = Extra[i] for all t.
// It models ranks with permanently larger work share.
type Imbalance struct {
	// Extra is the per-rank additional period; missing ranks get 0.
	Extra map[int]float64
}

// Zeta implements Local.
func (im Imbalance) Zeta(i int, _ float64) float64 { return im.Extra[i] }

// Delay is a one-off delay injection: rank Rank runs with an inflated
// period during [Start, Start+Duration], losing approximately Lost() phase
// — the oscillator analogue of the paper's "extra workload performed by
// the 5th MPI process" that launches an idle wave.
type Delay struct {
	// Rank is the delayed oscillator index.
	Rank int
	// Start is the beginning of the delay window.
	Start float64
	// Duration is the window length.
	Duration float64
	// Extra is the additional period during the window. Large Extra
	// relative to the base period effectively freezes the oscillator.
	Extra float64
}

// Zeta implements Local.
func (d Delay) Zeta(i int, t float64) float64 {
	if i == d.Rank && d.active(t) {
		return d.Extra
	}
	return 0
}

// active reports whether t lies in the delay window.
func (d Delay) active(t float64) bool { return t >= d.Start && t < d.Start+d.Duration }

// at returns the delayed rank's offset in the block [lo, lo+n) when the
// window is active at t, and −1 otherwise.
func (d Delay) at(lo, n int, t float64) int {
	if k := d.Rank - lo; k >= 0 && k < n && d.active(t) {
		return k
	}
	return -1
}

// Sum composes several local noise processes additively.
type Sum []Local

// Zeta implements Local.
func (s Sum) Zeta(i int, t float64) float64 {
	var z float64
	for _, n := range s {
		z += n.Zeta(i, t)
	}
	return z
}

// ZetaInto implements Batch: the block accumulates each component in
// order, exactly as Zeta does per row. A Delay adds only to its own rank;
// skipping the other rows' "+ 0" is exact, since a sum started from +0
// never holds −0. The block is loud once any write leaves a nonzero
// slot, so a Sum of Delays is quiet outside every window without a look
// at dst.
//
//pomvet:allocfree
func (s Sum) ZetaInto(dst []float64, lo int, t float64) bool {
	clear(dst)
	loud := false
	for _, n := range s {
		if d, ok := n.(Delay); ok {
			if k := d.at(lo, len(dst), t); k >= 0 {
				dst[k] += d.Extra
				loud = loud || dst[k] != 0
			}
			continue
		}
		for k := range dst {
			dst[k] += n.Zeta(lo+k, t)
			loud = loud || dst[k] != 0
		}
	}
	return loud
}

// CommJitter is frozen interaction noise: τ_ij(t) uniform in
// [Min, Max] per (i, j, cell), refreshed every Refresh time units.
type CommJitter struct {
	// MinDelay and MaxDelay bound the uniform delay.
	MinDelay, MaxDelay float64
	// Refresh is the cell length.
	Refresh float64
	// Seed makes the stream reproducible.
	Seed uint64
}

// Tau implements Interaction.
func (c CommJitter) Tau(i, j int, t float64) float64 {
	if c.MaxDelay <= 0 || c.Refresh <= 0 {
		return 0
	}
	cell := int64(math.Floor(t / c.Refresh))
	u := hashUniform(c.Seed, i*1_000_003+j, cell, 0x7a0)
	return c.MinDelay + (c.MaxDelay-c.MinDelay)*u
}

// Max implements Interaction.
func (c CommJitter) Max() float64 { return c.MaxDelay }

// ConstantLag applies the same delay to every interaction — the simplest
// model of a fixed network latency expressed in phase-information lag.
type ConstantLag struct {
	// Lag is the constant τ ≥ 0.
	Lag float64
}

// Tau implements Interaction.
func (c ConstantLag) Tau(int, int, float64) float64 { return c.Lag }

// Max implements Interaction.
func (c ConstantLag) Max() float64 { return c.Lag }
