package sim

import (
	"errors"
	"math"

	"repro/internal/ode"
	"repro/internal/stats"
)

// finalWindow is the one asymptotic-window start index of every windowed
// metric: the last finalFraction of n samples, clamped to at least the
// final sample, which is the whole window for any negative fraction.
func finalWindow(n int, finalFraction float64) int {
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	return start
}

// SpreadAccumulator computes the phase-spread metrics of a run online,
// from one stats.PhaseSpread per sample. Its Asymptotic value is the one
// implementation of the asymptotic spread; the tests pin it bit for bit
// to the trajectory-walking oracle.
type SpreadAccumulator struct {
	// FinalFraction sets the asymptotic averaging window; 0 means 0.15
	// (the window the report paths use), and a negative value the final
	// sample alone.
	FinalFraction float64
	// KeepTimeline retains the full per-sample spread series in Timeline —
	// O(nSamples) memory, for plots and the bitwise pinning tests. Leave
	// false in sweeps.
	KeepTimeline bool
	// Timeline is the retained series when KeepTimeline is set.
	Timeline []float64

	start, k   int
	sum        float64
	final, max float64
}

// Begin implements Sink.
func (a *SpreadAccumulator) Begin(_, nSamples int) {
	ff := a.FinalFraction
	if ff == 0 {
		ff = 0.15
	}
	a.start = finalWindow(nSamples, ff)
	a.k, a.sum, a.final, a.max = 0, 0, 0, 0
	a.Timeline = a.Timeline[:0]
}

// Sample implements Sink.
//
//pomvet:allocfree
func (a *SpreadAccumulator) Sample(_ float64, theta []float64) {
	a.add(stats.PhaseSpread(theta))
}

// add folds one sample's spread s into the metrics.
//
//pomvet:allocfree
func (a *SpreadAccumulator) add(s float64) {
	if a.KeepTimeline {
		a.Timeline = append(a.Timeline, s) //pomvet:allow allocfree opt-in timeline retention; off on the sweep hot path
	}
	if s > a.max {
		a.max = s
	}
	a.final = s
	if a.k >= a.start {
		a.sum += s
	}
	a.k++
}

// Final returns the spread at the last sample.
func (a *SpreadAccumulator) Final() float64 { return a.final }

// Max returns the largest spread seen.
func (a *SpreadAccumulator) Max() float64 { return a.max }

// Asymptotic returns the mean spread over the final window.
func (a *SpreadAccumulator) Asymptotic() float64 {
	if a.k <= a.start {
		return 0
	}
	return a.sum / float64(a.k-a.start)
}

// OrderAccumulator computes the Kuramoto order parameter r(t) online,
// from one stats.OrderParameter per sample. Its Asymptotic value
// is the r∞ of kuramoto.SweepCoupling; the tests pin it bit for bit to the
// trajectory-walking oracle (same additions in the same order over the
// same window).
type OrderAccumulator struct {
	// FinalFraction sets the asymptotic averaging window; 0 means 0.15.
	FinalFraction float64
	// KeepTimeline retains the full r(t) series (see SpreadAccumulator).
	KeepTimeline bool
	// Timeline is the retained series when KeepTimeline is set.
	Timeline []float64

	start, k   int
	sum        float64
	final, min float64
	seen       bool
	sin, cos   []float64 // OrderR scratch: one row, or summarySink's block
}

// Begin implements Sink.
func (a *OrderAccumulator) Begin(n, nSamples int) {
	ff := a.FinalFraction
	if ff == 0 {
		ff = 0.15
	}
	a.start = finalWindow(nSamples, ff)
	a.k, a.sum = 0, 0
	a.final, a.min, a.seen = 0, math.Inf(1), false
	a.Timeline = a.Timeline[:0]
	a.grow(n)
}

// grow sizes the OrderR scratch to at least n phases.
func (a *OrderAccumulator) grow(n int) {
	if len(a.sin) < n {
		a.sin, a.cos = make([]float64, n), make([]float64, n)
	}
}

// Sample implements Sink.
//
//pomvet:allocfree
func (a *OrderAccumulator) Sample(_ float64, theta []float64) {
	if len(theta) > len(a.sin) {
		a.grow(len(theta)) //pomvet:allow allocflow only a row wider than Begin's n (or no Begin) grows the scratch
	}
	a.add(stats.OrderR(theta, a.sin, a.cos))
}

// add folds one sample's order parameter r into the metrics.
//
//pomvet:allocfree
func (a *OrderAccumulator) add(r float64) {
	if a.KeepTimeline {
		a.Timeline = append(a.Timeline, r) //pomvet:allow allocfree opt-in timeline retention; off on the sweep hot path
	}
	if r < a.min {
		a.min = r
	}
	a.final = r
	a.seen = true
	if a.k >= a.start {
		a.sum += r
	}
	a.k++
}

// Final returns r at the last sample.
func (a *OrderAccumulator) Final() float64 { return a.final }

// Min returns the lowest r seen (0 when no samples arrived).
func (a *OrderAccumulator) Min() float64 {
	if !a.seen {
		return 0
	}
	return a.min
}

// Asymptotic returns the mean order parameter over the final window —
// the r∞ the Kuramoto bifurcation diagram plots against K.
func (a *OrderAccumulator) Asymptotic() float64 {
	if a.k <= a.start {
		return 0
	}
	return a.sum / float64(a.k-a.start)
}

// ResyncDetector finds the resynchronization time online: the first sample
// time at which the phase spread drops below Eps and stays below it for
// the rest of the run, computed forward by tracking the start of the
// current below-Eps run. The tests pin it to the backward-scanning
// oracle.
type ResyncDetector struct {
	// Eps is the spread threshold (the report paths use 0.1).
	Eps float64

	at   float64
	have bool
}

// Begin implements Sink.
func (d *ResyncDetector) Begin(int, int) { d.have = false }

// Sample implements Sink.
func (d *ResyncDetector) Sample(t float64, theta []float64) {
	d.add(t, stats.PhaseSpread(theta))
}

// add folds the spread s of the sample at time t into the detection.
func (d *ResyncDetector) add(t, s float64) {
	if s >= d.Eps {
		d.have = false
	} else if !d.have {
		d.have, d.at = true, t
	}
}

// ResyncTime returns the detected resynchronization time, or an error when
// the system never resynchronized.
func (d *ResyncDetector) ResyncTime() (float64, error) {
	if !d.have {
		return 0, errors.New("sim: system did not resynchronize")
	}
	return d.at, nil
}

// GapAccumulator time-averages the adjacent phase gaps θ_{i+1} − θ_i over
// the final window: the metric's one implementation, pinned bit for bit
// to the trajectory-walking oracle.
type GapAccumulator struct {
	// FinalFraction sets the averaging window; 0 means 0.15.
	FinalFraction float64

	start, k, count int
	sums            []float64
}

// Begin implements Sink.
func (a *GapAccumulator) Begin(n, nSamples int) {
	ff := a.FinalFraction
	if ff == 0 {
		ff = 0.15
	}
	a.start = finalWindow(nSamples, ff)
	a.k, a.count = 0, 0
	w := n - 1
	if w < 0 {
		w = 0
	}
	if cap(a.sums) < w {
		a.sums = make([]float64, w)
	}
	a.sums = a.sums[:w]
	for i := range a.sums {
		a.sums[i] = 0
	}
}

// Sample implements Sink.
func (a *GapAccumulator) Sample(_ float64, theta []float64) {
	if a.k >= a.start {
		for i := 1; i < len(theta) && i-1 < len(a.sums); i++ {
			a.sums[i-1] += theta[i] - theta[i-1]
		}
		a.count++
	}
	a.k++
}

// Gaps returns the time-averaged adjacent gaps over the final window.
func (a *GapAccumulator) Gaps() []float64 {
	out := make([]float64, len(a.sums))
	if a.count == 0 {
		return out
	}
	for i, s := range a.sums {
		out[i] = s / float64(a.count)
	}
	return out
}

// MeanAbsGap returns the mean |gap| of the averaged gaps, the settled
// wavefront summary the report paths print.
func (a *GapAccumulator) MeanAbsGap() float64 {
	gaps := a.Gaps()
	if len(gaps) == 0 {
		return 0
	}
	var sum float64
	for _, g := range gaps {
		sum += math.Abs(g)
	}
	return sum / float64(len(gaps))
}

// LockAccumulator decides asymptotic frequency locking online, retaining
// only the window-start row and the final row instead of the trajectory.
// The mean frequency of each component over the final window is the
// secant (y(t_end) − y(t_start)) / Δt; the system is locked when the
// frequency range is within a relative tolerance of its midpoint. It is
// the metric's one implementation; the tests pin it to the
// trajectory-walking oracle.
type LockAccumulator struct {
	// FinalFraction sets the averaging window; 0 means 0.2 (the report
	// default), and a negative value the final two samples.
	FinalFraction float64

	n, k, start int
	t0, t1      float64
	y0, y1      []float64
}

// Begin implements Sink.
func (a *LockAccumulator) Begin(n, nSamples int) {
	a.n = n
	a.k = 0
	ff := a.FinalFraction
	if ff == 0 {
		ff = 0.2
	}
	// The window start clamps to n−2 so the secant always spans at least
	// one sample interval (finalWindow clamps to n−1).
	a.start = nSamples - int(float64(nSamples)*ff)
	if a.start < 0 {
		a.start = 0
	}
	if a.start >= nSamples-1 {
		a.start = nSamples - 2
	}
	if cap(a.y0) < n {
		a.y0 = make([]float64, n)
		a.y1 = make([]float64, n)
	}
	a.y0, a.y1 = a.y0[:n], a.y1[:n]
}

// Sample implements Sink.
func (a *LockAccumulator) Sample(t float64, theta []float64) {
	if a.k == a.start {
		a.t0 = t
		copy(a.y0, theta)
	}
	a.t1 = t
	copy(a.y1, theta)
	a.k++
}

// Locked reports whether all components share the same mean frequency
// over the final window, to within tol (relative).
func (a *LockAccumulator) Locked(tol float64) bool {
	if a.k < 3 || a.k <= a.start {
		return false
	}
	dt := a.t1 - a.t0
	if dt <= 0 {
		return false
	}
	lo := (a.y1[0] - a.y0[0]) / dt
	hi := lo
	for i := 1; i < a.n; i++ {
		f := (a.y1[i] - a.y0[i]) / dt
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	mid := (lo + hi) / 2
	if mid == 0 {
		return hi-lo == 0
	}
	return (hi-lo)/math.Abs(mid) <= tol
}

// Summary is the O(N) reduction of one streamed run: everything the batch
// report paths need, without a single retained trajectory row.
type Summary struct {
	// FinalSpread, MaxSpread, and AsymptoticSpread are the phase-spread
	// metrics (AsymptoticSpread over the final-fraction window).
	FinalSpread, MaxSpread, AsymptoticSpread float64
	// FinalOrder and MinOrder are the Kuramoto order-parameter metrics.
	FinalOrder, MinOrder float64
	// Resynced reports whether the spread settled below the resync
	// threshold; ResyncTime is the settling time when it did.
	Resynced   bool
	ResyncTime float64
	// Gaps are the time-averaged adjacent gaps over the final window and
	// MeanAbsGap their mean magnitude.
	Gaps       []float64
	MeanAbsGap float64
	// Stats reports the solver work.
	Stats ode.Stats
}

// RunSummary streams a run through the standard accumulator set and
// returns the O(N) summary. resyncEps 0 selects 0.1 and finalFraction 0
// selects 0.15 — the thresholds the materialized report paths use. It
// works for any System: a Kuramoto coupling scan and a continuum
// relaxation study summarize through exactly the code path the POM uses.
func RunSummary(sys System, tEnd float64, nSamples int, resyncEps, finalFraction float64) (*Summary, error) {
	return RunSummaryTo(sys, tEnd, nSamples, resyncEps, finalFraction)
}

// RunSummaryTo is RunSummary with extra sinks teed into the same single
// pass over the sample stream — the hook archive-mode sweeps use to
// persist the full trajectory (an archive.RecordWriter is a Sink) while
// the standard summary accumulates. The extra sinks see exactly the
// rows the accumulators see, in the same order.
func RunSummaryTo(sys System, tEnd float64, nSamples int, resyncEps, finalFraction float64, extra ...Sink) (*Summary, error) {
	sum := newSummarySink(resyncEps, finalFraction)
	var sink Sink = sum
	if len(extra) > 0 {
		sink = Tee(append([]Sink{sum}, extra...)...)
	}
	st, err := RunStream(sys, tEnd, nSamples, sink)
	if err != nil {
		return nil, err
	}
	return sum.summary(st), nil
}

// orderBlock is how many rows the summary sink holds before it computes
// their order parameters in one stats.OrderRBlock call.
const orderBlock = 8

// summarySink is RunSummaryTo's one pass over a run: the four standard
// accumulators, held by value. Per row it computes the phase spread once
// and feeds it to the spread accumulator and the resync detector. The
// order parameter r does not need the row's time, so the sink copies
// rows into a block of orderBlock and computes their r together, which
// lets the latency chains of independent rows overlap; the r values
// still reach the order accumulator in row order. The Summary carries
// exactly the bits of a Tee of the four public sinks. Every row must
// have Begin's width, as RunStream's rows do.
type summarySink struct {
	spread SpreadAccumulator
	order  OrderAccumulator
	resync ResyncDetector
	gaps   GapAccumulator

	width, held int
	rows        []float64 // held rows, row-major, orderBlock·width
	r           [orderBlock]float64
}

// newSummarySink returns the summary sink with RunSummary's defaults:
// resyncEps 0 selects 0.1, and finalFraction 0 selects each windowed
// accumulator's own default.
func newSummarySink(resyncEps, finalFraction float64) *summarySink {
	if resyncEps == 0 {
		resyncEps = 0.1
	}
	return &summarySink{
		spread: SpreadAccumulator{FinalFraction: finalFraction},
		order:  OrderAccumulator{FinalFraction: finalFraction},
		resync: ResyncDetector{Eps: resyncEps},
		gaps:   GapAccumulator{FinalFraction: finalFraction},
	}
}

// Begin implements Sink.
func (s *summarySink) Begin(n, nSamples int) {
	s.spread.Begin(n, nSamples)
	s.order.Begin(n, nSamples)
	s.resync.Begin(n, nSamples)
	s.gaps.Begin(n, nSamples)
	s.order.grow(orderBlock * n) // the OrderRBlock scratch
	s.width, s.held = n, 0
	if m := orderBlock * n; len(s.rows) < m {
		s.rows = make([]float64, m)
	}
}

// Sample implements Sink.
//
//pomvet:allocfree
func (s *summarySink) Sample(t float64, theta []float64) {
	copy(s.rows[s.held*s.width:], theta)
	s.held++
	if s.held == orderBlock {
		s.flush()
	}
	spread := stats.PhaseSpread(theta)
	s.spread.add(spread)
	s.resync.add(t, spread)
	s.gaps.Sample(t, theta)
}

// flush feeds the order parameters of the held rows to the order
// accumulator, in row order.
//
//pomvet:allocfree
func (s *summarySink) flush() {
	m := s.held * s.width
	r := s.r[:s.held]
	stats.OrderRBlock(r, s.rows[:m], s.order.sin, s.order.cos)
	for _, v := range r {
		s.order.add(v)
	}
	s.held = 0
}

// summary reads the Summary of the finished run, with the solver work st.
func (s *summarySink) summary(st ode.Stats) *Summary {
	s.flush()
	sum := &Summary{
		FinalSpread:      s.spread.Final(),
		MaxSpread:        s.spread.Max(),
		AsymptoticSpread: s.spread.Asymptotic(),
		FinalOrder:       s.order.Final(),
		MinOrder:         s.order.Min(),
		Gaps:             s.gaps.Gaps(),
		MeanAbsGap:       s.gaps.MeanAbsGap(),
		Stats:            st,
	}
	if rt, err := s.resync.ResyncTime(); err == nil {
		sum.Resynced, sum.ResyncTime = true, rt
	}
	return sum
}

// Vector flattens the scalar summary metrics into a fixed-layout float
// vector — the metrics section of an archive record. The layout is
// stable: [FinalSpread, MaxSpread, AsymptoticSpread, FinalOrder,
// MinOrder, resynced (0/1), ResyncTime, MeanAbsGap].
func (s *Summary) Vector() []float64 {
	resynced := 0.0
	if s.Resynced {
		resynced = 1
	}
	return []float64{
		s.FinalSpread, s.MaxSpread, s.AsymptoticSpread,
		s.FinalOrder, s.MinOrder,
		resynced, s.ResyncTime, s.MeanAbsGap,
	}
}
