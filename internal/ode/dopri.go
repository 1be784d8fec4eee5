package ode

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Dormand–Prince 5(4) Butcher tableau (Hairer, Nørsett, Wanner, Solving
// Ordinary Differential Equations I, Table 5.2) with the first-same-as-last
// (FSAL) property: the 7th stage of an accepted step is the 1st stage of
// the next.
const (
	c2, c3, c4, c5 = 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9

	a21 = 1.0 / 5
	a31 = 3.0 / 40
	a32 = 9.0 / 40
	a41 = 44.0 / 45
	a42 = -56.0 / 15
	a43 = 32.0 / 9
	a51 = 19372.0 / 6561
	a52 = -25360.0 / 2187
	a53 = 64448.0 / 6561
	a54 = -212.0 / 729
	a61 = 9017.0 / 3168
	a62 = -355.0 / 33
	a63 = 46732.0 / 5247
	a64 = 49.0 / 176
	a65 = -5103.0 / 18656
	a71 = 35.0 / 384
	a73 = 500.0 / 1113
	a74 = 125.0 / 192
	a75 = -2187.0 / 6784
	a76 = 11.0 / 84

	// e_i = b5_i − b4_i: coefficients of the embedded error estimate.
	e1 = 71.0 / 57600
	e3 = -71.0 / 16695
	e4 = 71.0 / 1920
	e5 = -17253.0 / 339200
	e6 = 22.0 / 525
	e7 = -1.0 / 40

	// Dense-output coefficients for the 4th-order continuous extension.
	d1 = -12715105075.0 / 11282082432
	d3 = 87487479700.0 / 32700410799
	d4 = -10690763975.0 / 1880347072
	d5 = 701980252875.0 / 199316789632
	d6 = -1453857185.0 / 822651844
	d7 = 69997945.0 / 29380423
)

// DOPRI5 is an adaptive Dormand–Prince 5(4) integrator with dense output.
// The zero value is not usable; call NewDOPRI5.
type DOPRI5 struct {
	// Atol and Rtol are the absolute and relative error tolerances of the
	// embedded error estimate.
	Atol, Rtol float64
	// H0 is the initial step size; 0 selects one automatically.
	H0 float64
	// Hmax caps the step size; 0 means no cap beyond the interval length.
	Hmax float64
	// Hmin rejects the integration when the controller underflows below it.
	Hmin float64
	// MaxSteps aborts runaway integrations.
	MaxSteps int
	// Beta enables the PI stabilization term (0.04–0.08 typical; 0 gives
	// the plain I controller).
	Beta float64

	k1, k2, k3, k4, k5, k6, k7 []float64
	ytmp                       []float64
	y, ynew, ysmp              []float64

	// scratchSeg is the dense segment reused across steps when the caller
	// does not retain dense output (no KeepDense, OnStep, or Pool).
	scratchSeg DenseSegment
}

// NewDOPRI5 returns an integrator with the given tolerances and sensible
// controller defaults.
func NewDOPRI5(atol, rtol float64) *DOPRI5 {
	return &DOPRI5{Atol: atol, Rtol: rtol, MaxSteps: 10_000_000, Beta: 0.04}
}

// DenseSegment is the continuous extension of one accepted step over
// [T0, T0+H]. Eval provides 4th-order accurate values anywhere inside the
// step (and extrapolates outside, which the DDE driver uses for vanishing
// delays).
type DenseSegment struct {
	T0, H float64
	// rcont holds the five interpolation coefficient vectors, carved out
	// of one shared backing array so a segment costs two allocations at
	// most — and zero when recycled through a SegmentPool.
	rcont   [5][]float64
	backing []float64
}

// reserve sizes the interpolation vectors for dimension n, reusing the
// backing array when it is already large enough.
func (seg *DenseSegment) reserve(n int) {
	if cap(seg.backing) < 5*n {
		seg.backing = make([]float64, 5*n)
	}
	b := seg.backing[:5*n]
	for i := range seg.rcont {
		seg.rcont[i] = b[i*n : (i+1)*n : (i+1)*n]
	}
}

// SegmentPool recycles DenseSegments so long integrations that discard
// old history (the DDE driver's Compact) reach a steady state with no
// per-step allocations. The zero value is ready to use.
type SegmentPool struct{ free []*DenseSegment }

// Get returns a segment sized for dimension n, reusing a recycled one
// when available.
func (p *SegmentPool) Get(n int) *DenseSegment {
	if m := len(p.free); m > 0 {
		seg := p.free[m-1]
		p.free = p.free[:m-1]
		seg.reserve(n)
		return seg
	}
	seg := &DenseSegment{}
	seg.reserve(n)
	return seg
}

// Put returns a segment to the pool. The caller must not use it again.
func (p *SegmentPool) Put(seg *DenseSegment) {
	if seg != nil {
		p.free = append(p.free, seg)
	}
}

// Eval writes the interpolated state at time t into dst and returns it.
//
//pomvet:allocfree
func (seg *DenseSegment) Eval(t float64, dst []float64) []float64 {
	n := len(seg.rcont[0])
	if cap(dst) < n {
		dst = make([]float64, n) //pomvet:allow allocfree first-use resize only; the solver hands pre-sized sample buffers on the steady-state path
	}
	dst = dst[:n]
	th := (t - seg.T0) / seg.H
	th1 := 1 - th
	if n >= vec8From {
		mathx.Horner8(dst, &seg.rcont, th, th1)
		return dst
	}
	r0, r1, r2, r3, r4 := seg.rcont[0][:n], seg.rcont[1][:n], seg.rcont[2][:n], seg.rcont[3][:n], seg.rcont[4][:n]
	for i := 0; i < n; i++ {
		dst[i] = r0[i] + th*(r1[i]+th1*(r2[i]+th*(r3[i]+th1*r4[i])))
	}
	return dst
}

// EvalComponent interpolates a single state component at time t.
//
//pomvet:allocfree
func (seg *DenseSegment) EvalComponent(j int, t float64) float64 {
	th := (t - seg.T0) / seg.H
	th1 := 1 - th
	return seg.rcont[0][j] + th*(seg.rcont[1][j]+th1*(seg.rcont[2][j]+th*(seg.rcont[3][j]+th1*seg.rcont[4][j])))
}

// End returns the segment's right endpoint.
func (seg *DenseSegment) End() float64 { return seg.T0 + seg.H }

// SolveOptions configures a DOPRI5 integration run.
type SolveOptions struct {
	// SampleTs requests output at these times (must be strictly
	// increasing and lie in [t0, t1] — validated by Solve); when nil,
	// every accepted step is recorded.
	SampleTs []float64
	// SampleAt, together with NSamples > 0, requests output at the
	// increasing times SampleAt(0) … SampleAt(NSamples−1) without
	// materializing the time grid — the O(1)-memory sample plan streaming
	// consumers pair with SampleFunc. Ignored when SampleTs is set.
	SampleAt func(k int) float64
	// NSamples is the number of samples SampleAt produces.
	NSamples int
	// SampleFunc, when non-nil, streams every output row to the callback
	// instead of materializing it in Result.Ts/Ys: the result carries only
	// the work statistics and the run's memory is independent of the
	// sample count. The y slice is solver-owned and reused between calls;
	// implementations must not retain it.
	SampleFunc func(t float64, y []float64)
	// KeepDense retains all dense segments in the returned result.
	KeepDense bool
	// OnStep, when non-nil, is invoked after every accepted step with the
	// segment for that step (used by the DDE history).
	OnStep func(seg *DenseSegment)
	// Pool, when non-nil, supplies the dense segments handed to OnStep /
	// KeepDense. Pair it with a consumer that recycles retired segments
	// (the DDE history's Compact) to make long runs allocation-free.
	Pool *SegmentPool
}

// Result bundles the solution, work statistics, and (optionally) the dense
// segments of an integration.
type Result struct {
	Solution
	Stats Stats
	Dense []*DenseSegment
}

// ErrStepSizeUnderflow reports that the controller could not meet the
// tolerance with a step above Hmin.
var ErrStepSizeUnderflow = errors.New("ode: step size underflow")

// ErrTooManySteps reports that MaxSteps was exceeded.
var ErrTooManySteps = errors.New("ode: too many steps")

// ErrNonFinite reports a NaN error norm: a stage produced NaN (the
// right-hand side returned one, or the state overflowed into one). The
// step controller cannot recover from it — the next step size would be
// NaN — so the integration stops at the first such step.
var ErrNonFinite = errors.New("ode: non-finite error norm")

// Solve integrates y' = f(t, y) from t0 to t1 starting at y0.
func (s *DOPRI5) Solve(f Func, y0 []float64, t0, t1 float64, opt SolveOptions) (*Result, error) {
	if t1 < t0 {
		return nil, errors.New("ode: Solve needs t1 >= t0")
	}
	n := len(y0)
	if n == 0 {
		return nil, errors.New("ode: empty state")
	}
	s.alloc(n)
	res := &Result{}

	s.y = grow(s.y, n)
	copy(s.y, y0)
	s.ynew = grow(s.ynew, n)
	y, ynew := s.y, s.ynew
	t := t0

	// The sample plan is either an explicit grid (SampleTs) or a virtual
	// one (SampleAt), evaluated lazily so streaming runs hold no grid.
	if opt.NSamples < 0 {
		return nil, fmt.Errorf("ode: negative NSamples %d", opt.NSamples)
	}
	hasPlan := opt.SampleTs != nil
	nSamp := len(opt.SampleTs)
	sampleAt := func(k int) float64 { return opt.SampleTs[k] }
	if !hasPlan && opt.SampleAt != nil && opt.NSamples > 0 {
		hasPlan = true
		nSamp = opt.NSamples
		sampleAt = opt.SampleAt
	}
	// A bad plan — non-increasing times or samples outside [t0, t1] —
	// would silently produce corrupt output (rows skipped, duplicated, or
	// extrapolated); reject it up front. The scan evaluates the virtual
	// plan once ahead of time, which costs O(nSamp) arithmetic and no
	// allocations.
	if hasPlan {
		if err := checkSamplePlan(nSamp, sampleAt, t0, t1); err != nil {
			return nil, err
		}
	}

	// With a known sample plan the output rows are carved out of one
	// arena allocation instead of one allocation per sample. A streaming
	// consumer (SampleFunc) bypasses materialization entirely: rows are
	// handed over straight from the solver buffers and never stored.
	var arena []float64
	arenaNext := 0
	if hasPlan && opt.SampleFunc == nil {
		rows := nSamp + 1
		arena = make([]float64, rows*n)
		res.Ts = make([]float64, 0, rows)
		res.Ys = make([][]float64, 0, rows)
	}
	sampleIdx := 0
	record := func(tt float64, v []float64) {
		if opt.SampleFunc != nil {
			opt.SampleFunc(tt, v)
			return
		}
		res.Ts = append(res.Ts, tt)
		var row []float64
		if arena != nil {
			row = arena[arenaNext : arenaNext+n : arenaNext+n]
			arenaNext += n
		} else {
			row = make([]float64, n)
		}
		copy(row, v)
		res.Ys = append(res.Ys, row)
	}
	record(t0, y)
	// Skip any requested samples that coincide with t0.
	for sampleIdx < nSamp && sampleAt(sampleIdx) <= t0 {
		sampleIdx++
	}

	hmax := t1 - t0
	if s.Hmax > 0 && s.Hmax < hmax {
		hmax = s.Hmax
	}
	h := s.H0
	if h <= 0 {
		h = s.initialStep(f, t0, y, t1)
	}
	h = math.Min(h, hmax)

	f(t, y, s.k1) // first stage; FSAL recycles k7 afterwards
	res.Stats.Evals++

	// retain: the caller keeps segments beyond the current step, so each
	// accepted step needs its own (pooled or fresh) segment. Otherwise the
	// solver-local scratch segment is reused, and no segment is built at
	// all when nothing consumes dense output.
	retain := opt.KeepDense || opt.OnStep != nil
	needDense := retain || hasPlan

	errOld := 1e-4
	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 10_000_000
	}

	for t < t1 {
		if res.Stats.Steps >= maxSteps {
			return res, fmt.Errorf("%w (t=%g of %g)", ErrTooManySteps, t, t1)
		}
		if t+h > t1 {
			h = t1 - t
		}
		res.Stats.Steps++

		errNorm := s.step(f, t, y, h, ynew)
		res.Stats.Evals += 6
		if math.IsNaN(errNorm) {
			return res, fmt.Errorf("%w at t=%g (h=%g)", ErrNonFinite, t, h)
		}

		if errNorm <= 1 { // accept
			res.Stats.Accepted++
			var seg *DenseSegment
			if needDense {
				switch {
				case opt.Pool != nil:
					seg = opt.Pool.Get(n)
				case retain:
					seg = &DenseSegment{}
					seg.reserve(n)
				default:
					seg = &s.scratchSeg
					seg.reserve(n)
				}
				s.fillDense(seg, t, h, y, ynew)
				if opt.OnStep != nil {
					opt.OnStep(seg)
				}
				if opt.KeepDense {
					res.Dense = append(res.Dense, seg)
				}
			}
			tNew := t + h
			if !hasPlan {
				record(tNew, ynew)
			} else {
				for sampleIdx < nSamp {
					ts := sampleAt(sampleIdx)
					if ts > tNew+1e-14 {
						break
					}
					record(ts, seg.Eval(ts, s.ysmp))
					sampleIdx++
				}
			}
			// FSAL: k7 of the accepted step becomes k1 of the next.
			s.k1, s.k7 = s.k7, s.k1
			y, ynew = ynew, y
			t = tNew

			// PI controller (Hairer II.4): err^(-0.2+beta) * errold^beta.
			fac := math.Pow(errNorm, -(0.2-s.Beta*0.75)) * math.Pow(errOld, s.Beta)
			fac = mathx.Clamp(0.9*fac, 0.2, 10)
			h = math.Min(h*fac, hmax)
			errOld = math.Max(errNorm, 1e-4)
		} else { // reject
			res.Stats.Rejected++
			fac := mathx.Clamp(0.9*math.Pow(errNorm, -0.2), 0.1, 1)
			h *= fac
			if s.Hmin > 0 && h < s.Hmin || h < 1e-14*math.Max(1, math.Abs(t)) {
				return res, fmt.Errorf("%w at t=%g (h=%g)", ErrStepSizeUnderflow, t, h)
			}
		}
	}
	return res, nil
}

// checkSamplePlan validates a sample plan: every time must lie inside
// the integration interval and the sequence must be strictly increasing.
func checkSamplePlan(n int, at func(int) float64, t0, t1 float64) error {
	prev := math.Inf(-1)
	for k := 0; k < n; k++ {
		ts := at(k)
		if math.IsNaN(ts) || ts < t0 || ts > t1 {
			return fmt.Errorf("ode: sample %d at t=%g lies outside [%g, %g]", k, ts, t0, t1)
		}
		if ts <= prev {
			return fmt.Errorf("ode: sample plan not increasing: sample %d at t=%g after t=%g", k, ts, prev)
		}
		prev = ts
	}
	return nil
}

// Coefficient rows in the order the 8-wide passes combine the stages
// (stage 2 takes h·a21 at run time).
var (
	stage3 = [...]float64{a31, a32}
	stage4 = [...]float64{a41, a42, a43}
	stage5 = [...]float64{a51, a52, a53, a54}
	stage6 = [...]float64{a61, a62, a63, a64, a65}
	stage7 = [...]float64{a71, a73, a74, a75, a76}
	errRow = [...]float64{e1, e3, e4, e5, e6, e7}
	dense4 = [...]float64{d1, d3, d4, d5, d6, d7}
)

// vec8From is the smallest state dimension that step, errNorm,
// fillDense and Eval hand to the 8-wide AVX-512 passes (math.MaxInt
// without them). Below two full vectors the fixed cost of the kernel
// calls outweighs the lanes (BenchmarkDOPRI5Step). Both paths give the
// same bits; tests move the bound to run either path at every size.
var vec8From = func() int {
	if mathx.HasAVX512() {
		return 16
	}
	return math.MaxInt
}()

// step performs one trial step of size h from (t, y) into ynew and returns
// the scaled error norm. k1 must hold f(t, y) on entry; k2..k7 are filled.
//
// Each stage is one pass over the state. The passes perform exactly the
// scalar operations of y[i] + h*(a·k) in left-to-right order, on either
// path: h*a21 is hoisted, which the expression y[i] + h*a21*k1[i] already
// evaluates first. errNorm then makes one more pass for the error.
//
//pomvet:allocfree
func (s *DOPRI5) step(f Func, t float64, y []float64, h float64, ynew []float64) float64 {
	n := len(y)
	ynew = ynew[:n]
	k1, k2, k3, k4, k5, k6, k7 := s.k1[:n], s.k2[:n], s.k3[:n], s.k4[:n], s.k5[:n], s.k6[:n], s.k7[:n]
	ytmp := s.ytmp[:n]
	if n >= vec8From {
		// Stage 2 with an outer factor of 1: y + 1*((h*a21)*k1) is
		// y + (h*a21)*k1 exactly.
		ha21 := [1]float64{h * a21}
		mathx.LinComb8(ytmp, y, 1, ha21[:], k1)
		f(t+c2*h, ytmp, k2)
		mathx.LinComb8(ytmp, y, h, stage3[:], k1, k2)
		f(t+c3*h, ytmp, k3)
		mathx.LinComb8(ytmp, y, h, stage4[:], k1, k2, k3)
		f(t+c4*h, ytmp, k4)
		mathx.LinComb8(ytmp, y, h, stage5[:], k1, k2, k3, k4)
		f(t+c5*h, ytmp, k5)
		mathx.LinComb8(ytmp, y, h, stage6[:], k1, k2, k3, k4, k5)
		f(t+h, ytmp, k6)
		mathx.LinComb8(ynew, y, h, stage7[:], k1, k3, k4, k5, k6)
		f(t+h, ynew, k7)
		return s.errNorm(h, y, ynew)
	}

	ha21 := h * a21
	for i := 0; i < n; i++ {
		ytmp[i] = y[i] + ha21*k1[i]
	}
	f(t+c2*h, ytmp, k2)
	for i := 0; i < n; i++ {
		ytmp[i] = y[i] + h*(a31*k1[i]+a32*k2[i])
	}
	f(t+c3*h, ytmp, k3)
	for i := 0; i < n; i++ {
		ytmp[i] = y[i] + h*(a41*k1[i]+a42*k2[i]+a43*k3[i])
	}
	f(t+c4*h, ytmp, k4)
	for i := 0; i < n; i++ {
		ytmp[i] = y[i] + h*(a51*k1[i]+a52*k2[i]+a53*k3[i]+a54*k4[i])
	}
	f(t+c5*h, ytmp, k5)
	for i := 0; i < n; i++ {
		ytmp[i] = y[i] + h*(a61*k1[i]+a62*k2[i]+a63*k3[i]+a64*k4[i]+a65*k5[i])
	}
	f(t+h, ytmp, k6)
	for i := 0; i < n; i++ {
		ynew[i] = y[i] + h*(a71*k1[i]+a73*k3[i]+a74*k4[i]+a75*k5[i]+a76*k6[i])
	}
	f(t+h, ynew, k7)
	return s.errNorm(h, y, ynew)
}

// errNorm returns the RMS norm of the step's error estimate h*(e·k),
// scaled component-wise by atol + rtol*max(|y|, |ynew|) (Hairer–Nørsett–
// Wanner II.4). The estimate is never stored: each component goes
// straight into the sum, which runs in element order. math.Max is
// inlined; a NaN on either side gives NaN, and both sides are ≥ +0
// otherwise.
//
//pomvet:allocfree
func (s *DOPRI5) errNorm(h float64, y, ynew []float64) float64 {
	n := len(y)
	ynew = ynew[:n]
	k1, k3, k4, k5, k6, k7 := s.k1[:n], s.k3[:n], s.k4[:n], s.k5[:n], s.k6[:n], s.k7[:n]
	if n >= vec8From {
		ks := [6][]float64{k1, k3, k4, k5, k6, k7}
		sum := mathx.ErrSumSq8(y, ynew, h, s.Atol, s.Rtol, &errRow, &ks)
		return math.Sqrt(sum / float64(n))
	}
	atol, rtol := s.Atol, s.Rtol
	var sum float64
	for i := 0; i < n; i++ {
		est := h * (e1*k1[i] + e3*k3[i] + e4*k4[i] + e5*k5[i] + e6*k6[i] + e7*k7[i])
		a, b := math.Abs(y[i]), math.Abs(ynew[i])
		if a > b || math.IsNaN(a) {
			b = a
		}
		e := est / (atol + rtol*b)
		sum += e * e
	}
	return math.Sqrt(sum / float64(n))
}

// fillDense writes the continuous extension of the step just accepted
// into seg, whose interpolation vectors must already be sized (reserve).
//
//pomvet:allocfree
func (s *DOPRI5) fillDense(seg *DenseSegment, t, h float64, y, ynew []float64) {
	n := len(y)
	seg.T0, seg.H = t, h
	k1, k3, k4, k5, k6, k7 := s.k1[:n], s.k3[:n], s.k4[:n], s.k5[:n], s.k6[:n], s.k7[:n]
	if n >= vec8From {
		mathx.DenseFill8(&seg.rcont, y, ynew, k1, k7, h)
		mathx.LinComb8(seg.rcont[4], nil, h, dense4[:], k1, k3, k4, k5, k6, k7)
		return
	}
	ynew = ynew[:n]
	r0, r1, r2, r3, r4 := seg.rcont[0][:n], seg.rcont[1][:n], seg.rcont[2][:n], seg.rcont[3][:n], seg.rcont[4][:n]
	for i := 0; i < n; i++ {
		ydiff := ynew[i] - y[i]
		bspl := h*k1[i] - ydiff
		r0[i] = y[i]
		r1[i] = ydiff
		r2[i] = bspl
		r3[i] = ydiff - h*k7[i] - bspl
		r4[i] = h * (d1*k1[i] + d3*k3[i] + d4*k4[i] + d5*k5[i] + d6*k6[i] + d7*k7[i])
	}
}

// initialStep implements Hairer's automatic initial step heuristic. It
// borrows the k2/k3/ytmp stage buffers as scratch (alloc must have run;
// the stages are overwritten by the first step anyway).
func (s *DOPRI5) initialStep(f Func, t0 float64, y0 []float64, t1 float64) float64 {
	n := len(y0)
	f0 := s.k2
	f(t0, y0, f0)
	var d0, dY float64
	for i := 0; i < n; i++ {
		sc := s.Atol + s.Rtol*math.Abs(y0[i])
		d0 += (y0[i] / sc) * (y0[i] / sc)
		dY += (f0[i] / sc) * (f0[i] / sc)
	}
	d0 = math.Sqrt(d0 / float64(n))
	dY = math.Sqrt(dY / float64(n))
	h0 := 1e-6
	if d0 >= 1e-5 && dY >= 1e-5 {
		h0 = 0.01 * d0 / dY
	}
	h0 = math.Min(h0, t1-t0)

	y1 := s.ytmp
	f1 := s.k3
	for i := 0; i < n; i++ {
		y1[i] = y0[i] + h0*f0[i]
	}
	f(t0+h0, y1, f1)
	var d2 float64
	for i := 0; i < n; i++ {
		sc := s.Atol + s.Rtol*math.Abs(y0[i])
		df := (f1[i] - f0[i]) / sc
		d2 += df * df
	}
	d2 = math.Sqrt(d2/float64(n)) / h0
	der := math.Max(dY, d2)
	var h1 float64
	if der <= 1e-15 {
		h1 = math.Max(1e-6, h0*1e-3)
	} else {
		h1 = math.Pow(0.01/der, 0.2)
	}
	return math.Min(math.Min(100*h0, h1), t1-t0)
}

func (s *DOPRI5) alloc(n int) {
	s.k1 = grow(s.k1, n)
	s.k2 = grow(s.k2, n)
	s.k3 = grow(s.k3, n)
	s.k4 = grow(s.k4, n)
	s.k5 = grow(s.k5, n)
	s.k6 = grow(s.k6, n)
	s.k7 = grow(s.k7, n)
	s.ytmp = grow(s.ytmp, n)
	s.ysmp = grow(s.ysmp, n)
}
