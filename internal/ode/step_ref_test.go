package ode

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/mathx"
)

// The reference below is the scalar DOPRI5 step as it stood before the
// fused passes — step, fillDense, mathx.ScaledNorm and DenseSegment.Eval,
// verbatim apart from receivers and names. TestStepMatchesReference pins
// every path of the production step to it bit for bit.

// refDOPRI5 holds the reference step's buffers, yerr included.
type refDOPRI5 struct {
	Atol, Rtol                 float64
	k1, k2, k3, k4, k5, k6, k7 []float64
	ytmp, yerr                 []float64
}

func (s *refDOPRI5) step(f Func, t float64, y []float64, h float64, ynew []float64) float64 {
	n := len(y)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*a21*s.k1[i]
	}
	f(t+c2*h, s.ytmp, s.k2)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a31*s.k1[i]+a32*s.k2[i])
	}
	f(t+c3*h, s.ytmp, s.k3)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a41*s.k1[i]+a42*s.k2[i]+a43*s.k3[i])
	}
	f(t+c4*h, s.ytmp, s.k4)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a51*s.k1[i]+a52*s.k2[i]+a53*s.k3[i]+a54*s.k4[i])
	}
	f(t+c5*h, s.ytmp, s.k5)
	for i := 0; i < n; i++ {
		s.ytmp[i] = y[i] + h*(a61*s.k1[i]+a62*s.k2[i]+a63*s.k3[i]+a64*s.k4[i]+a65*s.k5[i])
	}
	f(t+h, s.ytmp, s.k6)
	for i := 0; i < n; i++ {
		ynew[i] = y[i] + h*(a71*s.k1[i]+a73*s.k3[i]+a74*s.k4[i]+a75*s.k5[i]+a76*s.k6[i])
	}
	f(t+h, ynew, s.k7)
	for i := 0; i < n; i++ {
		s.yerr[i] = h * (e1*s.k1[i] + e3*s.k3[i] + e4*s.k4[i] + e5*s.k5[i] + e6*s.k6[i] + e7*s.k7[i])
	}
	return refScaledNorm(s.yerr, y, ynew, s.Atol, s.Rtol)
}

func (s *refDOPRI5) fillDense(seg *DenseSegment, t, h float64, y, ynew []float64) {
	n := len(y)
	seg.T0, seg.H = t, h
	for i := 0; i < n; i++ {
		ydiff := ynew[i] - y[i]
		bspl := h*s.k1[i] - ydiff
		seg.rcont[0][i] = y[i]
		seg.rcont[1][i] = ydiff
		seg.rcont[2][i] = bspl
		seg.rcont[3][i] = ydiff - h*s.k7[i] - bspl
		seg.rcont[4][i] = h * (d1*s.k1[i] + d3*s.k3[i] + d4*s.k4[i] + d5*s.k5[i] + d6*s.k6[i] + d7*s.k7[i])
	}
}

func refScaledNorm(errv, y0, y1 []float64, atol, rtol float64) float64 {
	n := len(errv)
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		sc := atol + rtol*math.Max(math.Abs(y0[i]), math.Abs(y1[i]))
		e := errv[i] / sc
		s += e * e
	}
	return math.Sqrt(s / float64(n))
}

func refEval(seg *DenseSegment, t float64, dst []float64) []float64 {
	n := len(seg.rcont[0])
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	th := (t - seg.T0) / seg.H
	th1 := 1 - th
	for i := 0; i < n; i++ {
		dst[i] = seg.rcont[0][i] + th*(seg.rcont[1][i]+th1*(seg.rcont[2][i]+th*(seg.rcont[3][i]+th1*seg.rcont[4][i])))
	}
	return dst
}

// stepPath is one step implementation: the 8-wide passes or the
// portable loops.
type stepPath struct {
	name string
	vec8 bool
}

// stepPaths lists the step implementations this CPU can run.
func stepPaths() []stepPath {
	if mathx.HasAVX512() {
		return []stepPath{{"avx512", true}, {"portable", false}}
	}
	return []stepPath{{"portable", false}}
}

// useVec8Step puts every state size on the 8-wide path (on) or on the
// portable one, and returns the restore function.
func useVec8Step(on bool) func() {
	old := vec8From
	vec8From = math.MaxInt
	if on {
		vec8From = 1
	}
	return func() { vec8From = old }
}

// sameBits reports bitwise equality, any NaN matching any NaN (payloads
// depend on operand order, which the compiler may pick).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func compareVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// stepCase is one set of inputs: the state, the first stage, the step
// size and a linear right-hand side dydt[i] = a[i]*y[i] + b[i]*y[i+1] +
// c[i]*t whose coefficients carry the special values into every stage.
type stepCase struct {
	name       string
	y, k1      []float64
	a, b, c    []float64
	t, h       float64
	atol, rtol float64
}

func (c *stepCase) rhs(t float64, y, dydt []float64) {
	n := len(y)
	for i := range y {
		dydt[i] = c.a[i]*y[i] + c.b[i]*y[(i+1)%n] + c.c[i]*t
	}
}

// stepCases builds the inputs for dimension n: ordinary values; ±0,
// subnormals and large magnitudes with a finite norm; magnitudes that
// overflow; ±Inf and NaN mixed in; and one NaN in an ordinary state.
func stepCases(n int) []stepCase {
	rng := rand.New(rand.NewSource(int64(n)))
	small := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-308}
	wide := append([]float64{1e-200, 1e150, -1e150}, small...)
	finite := append([]float64{1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}, wide...)
	nonfinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	vec := func(pick func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = pick(i)
		}
		return v
	}
	uniform := func(lo, hi float64) func(int) float64 {
		return func(int) float64 { return lo + (hi-lo)*rng.Float64() }
	}
	// special draws from vals in about one element of four, otherwise
	// from base.
	special := func(vals []float64, base func(int) float64) func(int) float64 {
		return func(i int) float64 {
			if rng.Intn(4) == 0 {
				return vals[rng.Intn(len(vals))]
			}
			return base(i)
		}
	}
	all := append(append([]float64(nil), finite...), nonfinite...)
	return []stepCase{{
		name: "ordinary",
		y:    vec(uniform(-2, 2)), k1: vec(uniform(-1, 1)),
		a: vec(uniform(-1, 0)), b: vec(uniform(-0.5, 0.5)), c: vec(uniform(-0.1, 0.1)),
		t: 0.3, h: 0.01, atol: 1e-8, rtol: 1e-6,
	}, {
		name: "zeros-subnormals-large",
		y:    vec(special(wide, uniform(-3, 3))), k1: vec(special(wide, uniform(-1, 1))),
		a: vec(special(small, uniform(-1, 1))), b: vec(special(small, uniform(-1, 1))), c: vec(special(small, uniform(-1, 1))),
		t: 0.75, h: 0.05, atol: 1e-9, rtol: 1e-6,
	}, {
		name: "overflow",
		y:    vec(special(finite, uniform(-3, 3))), k1: vec(special(finite, uniform(-1, 1))),
		a: vec(special(finite, uniform(-1, 1))), b: vec(special(finite, uniform(-1, 1))), c: vec(uniform(-1, 1)),
		t: 12.5, h: 0.37, atol: 1e-10, rtol: 1e-7,
	}, {
		name: "nonfinite",
		y:    vec(special(all, uniform(-3, 3))), k1: vec(special(all, uniform(-1, 1))),
		a: vec(special(all, uniform(-1, 1))), b: vec(uniform(-1, 1)), c: vec(special(nonfinite, uniform(-1, 1))),
		t: -4, h: 2.5e-3, atol: 1e-6, rtol: 1e-3,
	}, {
		name: "one-nan",
		y: vec(func(i int) float64 {
			if i == n/2 {
				return math.NaN()
			}
			return float64(i + 1)
		}),
		k1: vec(uniform(-1, 1)),
		a:  vec(uniform(-1, 0)), b: vec(uniform(-0.5, 0.5)), c: vec(uniform(-0.1, 0.1)),
		t: 1, h: 0.1, atol: 1e-8, rtol: 1e-6,
	}}
}

// TestStepMatchesReference pins step, errNorm, fillDense and Eval on every
// path to the pre-fusion scalar reference, bit for bit: ynew, every
// stage, the error norm, the five dense-output vectors and Eval at
// interior θ.
func TestStepMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 30, 40, 96, 1000}
	for _, path := range stepPaths() {
		t.Run(path.name, func(t *testing.T) {
			defer useVec8Step(path.vec8)()
			for _, n := range sizes {
				for _, c := range stepCases(n) {
					t.Run(strconv.Itoa(n)+"/"+c.name, func(t *testing.T) { checkStep(t, &c) })
				}
			}
			t.Run("known-norm", checkKnownNorm)
		})
	}
}

func checkStep(t *testing.T, c *stepCase) {
	n := len(c.y)
	ref := &refDOPRI5{Atol: c.atol, Rtol: c.rtol}
	for _, p := range []*[]float64{&ref.k1, &ref.k2, &ref.k3, &ref.k4, &ref.k5, &ref.k6, &ref.k7, &ref.ytmp, &ref.yerr} {
		*p = make([]float64, n)
	}
	copy(ref.k1, c.k1)
	s := NewDOPRI5(c.atol, c.rtol)
	s.alloc(n)
	copy(s.k1, c.k1)

	yRef, yGot := append([]float64(nil), c.y...), append([]float64(nil), c.y...)
	ynewRef, ynewGot := make([]float64, n), make([]float64, n)
	normRef := ref.step(c.rhs, c.t, yRef, c.h, ynewRef)
	normGot := s.step(c.rhs, c.t, yGot, c.h, ynewGot)
	compareVec(t, "y", yGot, yRef)
	compareVec(t, "ynew", ynewGot, ynewRef)
	for j, pair := range [][2][]float64{{s.k1, ref.k1}, {s.k2, ref.k2}, {s.k3, ref.k3},
		{s.k4, ref.k4}, {s.k5, ref.k5}, {s.k6, ref.k6}, {s.k7, ref.k7}} {
		compareVec(t, "k"+strconv.Itoa(j+1), pair[0], pair[1])
	}
	if !sameBits(normGot, normRef) {
		t.Fatalf("error norm = %v, want %v", normGot, normRef)
	}

	var segRef, segGot DenseSegment
	segRef.reserve(n)
	segGot.reserve(n)
	ref.fillDense(&segRef, c.t, c.h, yRef, ynewRef)
	s.fillDense(&segGot, c.t, c.h, yGot, ynewGot)
	if segGot.T0 != segRef.T0 || segGot.H != segRef.H {
		t.Fatalf("segment span [%v, +%v], want [%v, +%v]", segGot.T0, segGot.H, segRef.T0, segRef.H)
	}
	for j := range segRef.rcont {
		compareVec(t, "rcont["+strconv.Itoa(j)+"]", segGot.rcont[j], segRef.rcont[j])
	}
	for _, th := range []float64{0.1, 0.5, 0.73} {
		at := c.t + th*c.h
		compareVec(t, "Eval", segGot.Eval(at, make([]float64, n)), refEval(&segRef, at, nil))
	}
}

// checkKnownNorm is the former mathx.ScaledNorm test: an error of 1e-7
// on a state of ones, atol 1e-8 and rtol 1e-7, has norm 1e-7/(1.1e-7)
// per component. The error estimate is h*e1*k1 with the other stages 0.
func checkKnownNorm(t *testing.T) {
	const h = 0.5
	s := NewDOPRI5(1e-8, 1e-7)
	s.alloc(2)
	for i := range s.k1 {
		s.k1[i] = 1e-7 / (h * e1)
	}
	y := []float64{1, 1}
	got := s.errNorm(h, y, y)
	want := 1e-7 / (1e-8 + 1e-7)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("errNorm = %v, want %v", got, want)
	}
	yerr := make([]float64, 2)
	for i := range yerr {
		yerr[i] = h * (e1*s.k1[i] + e3*s.k3[i] + e4*s.k4[i] + e5*s.k5[i] + e6*s.k6[i] + e7*s.k7[i])
	}
	if ref := refScaledNorm(yerr, y, y, s.Atol, s.Rtol); !sameBits(got, ref) {
		t.Errorf("errNorm = %v, reference %v", got, ref)
	}
	// math.Max's NaN on either side, which a step never produces for y
	// alone (a NaN in y reaches ynew).
	for _, pair := range [][2][]float64{{{math.NaN(), 1}, y}, {y, {1, math.NaN()}}} {
		if got := s.errNorm(h, pair[0], pair[1]); !math.IsNaN(got) {
			t.Errorf("errNorm(y=%v, ynew=%v) = %v, want NaN", pair[0], pair[1], got)
		}
	}
}

// BenchmarkDOPRI5Step times the solver's own work for one accepted step
// on each path — six stage passes, the error norm, the dense fill and
// one dense-output evaluation — around a linear right-hand side (pairs of
// harmonic oscillators) cheap enough that the solver dominates.
func BenchmarkDOPRI5Step(b *testing.B) {
	rotate := func(_ float64, y, dydt []float64) {
		for i := 0; i+1 < len(y); i += 2 {
			dydt[i], dydt[i+1] = y[i+1], -y[i]
		}
	}
	for _, path := range stepPaths() {
		for _, n := range []int{8, 30, 96} {
			b.Run(path.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				defer useVec8Step(path.vec8)()
				s := NewDOPRI5(1e-8, 1e-6)
				s.alloc(n)
				y, ynew, out := make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range y {
					y[i] = math.Cos(float64(i))
				}
				rotate(0, y, s.k1)
				var seg DenseSegment
				seg.reserve(n)
				const h = 1e-3
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.step(rotate, 0, y, h, ynew)
					s.fillDense(&seg, 0, h, y, ynew)
					seg.Eval(h/2, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
			})
		}
	}
}
