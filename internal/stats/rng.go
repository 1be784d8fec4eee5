// Package stats provides the deterministic random number generation,
// probability distributions, and statistical analysis used throughout the
// POM repository. All generators are explicitly seeded so that every
// experiment in the paper reproduction is bit-for-bit repeatable.
package stats

import "math"

// RNG is a xoshiro256** pseudo-random generator (Blackman & Vigna). It is
// small, fast, passes BigCrush, and — unlike math/rand's global state — is
// a value that can be embedded per-process in the simulators so that noise
// streams of different MPI ranks are independent and reproducible.
type RNG struct {
	s [4]uint64
	// spare caches the second normal deviate from the Marsaglia polar
	// transform.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed nonzero state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state deterministically from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	r.hasSpare = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Uniform returns a uniform sample in [a, b).
func (r *RNG) Uniform(a, b float64) float64 { return a + (b-a)*r.Float64() }

// Normal returns a standard normal deviate using the Marsaglia polar
// method (no trig, numerically robust in the tails we use).
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormalMS returns a normal deviate with the given mean and standard
// deviation.
func (r *RNG) NormalMS(mean, sigma float64) float64 {
	return mean + sigma*r.Normal()
}
