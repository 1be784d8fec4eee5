// Package trace records and analyzes per-rank execution timelines of the
// simulated MPI programs — the role Intel Trace Analyzer (ITAC) plays in
// the paper. A trace is a list of state spans per rank (computation vs.
// communication/waiting, matching the white/red coloring of the paper's
// Fig. 2 insets) plus per-iteration completion timestamps. The analysis
// routines extract the quantities the paper reads off its traces: idle
// wave arrival times and propagation speed, per-rank waiting time, and
// the skew structure of computational wavefronts.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// SpanKind classifies what a rank was doing during a span.
type SpanKind int

const (
	// SpanCompute is useful computation (white in ITAC traces).
	SpanCompute SpanKind = iota
	// SpanComm is communication including blocked waiting (red).
	SpanComm
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if k == SpanCompute {
		return "compute"
	}
	return "comm"
}

// Span is one contiguous state interval of one rank.
type Span struct {
	Kind       SpanKind
	Start, End float64
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// Trace is a complete execution record of an N-rank program.
type Trace struct {
	// Spans[r] is rank r's timeline in increasing time order.
	Spans [][]Span
	// IterEnds[r][k] is the time rank r finished iteration k.
	IterEnds [][]float64
	// End is the completion time of the whole run (makespan).
	End float64
}

// NewTrace returns an empty trace for n ranks.
func NewTrace(n int) *Trace {
	return &Trace{
		Spans:    make([][]Span, n),
		IterEnds: make([][]float64, n),
	}
}

// N returns the number of ranks.
func (t *Trace) N() int { return len(t.Spans) }

// Reserve pre-sizes rank r's span and iteration storage so recording in a
// hot loop (the cluster engine) appends without growing slices.
func (t *Trace) Reserve(r, nSpans, nIters int) {
	if cap(t.Spans[r]) < nSpans {
		s := make([]Span, len(t.Spans[r]), nSpans)
		copy(s, t.Spans[r])
		t.Spans[r] = s
	}
	if cap(t.IterEnds[r]) < nIters {
		e := make([]float64, len(t.IterEnds[r]), nIters)
		copy(e, t.IterEnds[r])
		t.IterEnds[r] = e
	}
}

// Record appends a span to rank r, merging it with the previous span when
// contiguous and of the same kind. Zero-length spans are dropped.
func (t *Trace) Record(r int, kind SpanKind, start, end float64) {
	if end <= start {
		return
	}
	spans := t.Spans[r]
	if n := len(spans); n > 0 && spans[n-1].Kind == kind && spans[n-1].End >= start-1e-12 {
		spans[n-1].End = end
		t.Spans[r] = spans
	} else {
		t.Spans[r] = append(spans, Span{Kind: kind, Start: start, End: end})
	}
	if end > t.End {
		t.End = end
	}
}

// MarkIterEnd records that rank r completed an iteration at time ts.
func (t *Trace) MarkIterEnd(r int, ts float64) {
	t.IterEnds[r] = append(t.IterEnds[r], ts)
	if ts > t.End {
		t.End = ts
	}
}

// Validate checks the structural invariants: spans sorted, non-overlapping
// and nonnegative, iteration marks increasing.
func (t *Trace) Validate() error {
	for r, spans := range t.Spans {
		prev := math.Inf(-1)
		for i, s := range spans {
			if s.End < s.Start {
				return fmt.Errorf("trace: rank %d span %d negative", r, i)
			}
			if s.Start < prev-1e-9 {
				return fmt.Errorf("trace: rank %d span %d overlaps previous", r, i)
			}
			prev = s.End
		}
		for i := 1; i < len(t.IterEnds[r]); i++ {
			if t.IterEnds[r][i] < t.IterEnds[r][i-1] {
				return fmt.Errorf("trace: rank %d iteration marks not increasing", r)
			}
		}
	}
	return nil
}

// TimeInState sums the time rank r spent in the given state.
func (t *Trace) TimeInState(r int, kind SpanKind) float64 {
	var sum float64
	for _, s := range t.Spans[r] {
		if s.Kind == kind {
			sum += s.Duration()
		}
	}
	return sum
}

// CommFractions returns each rank's communication time fraction.
func (t *Trace) CommFractions() []float64 {
	out := make([]float64, t.N())
	for r := range out {
		comm := t.TimeInState(r, SpanComm)
		comp := t.TimeInState(r, SpanCompute)
		if tot := comm + comp; tot > 0 {
			out[r] = comm / tot
		}
	}
	return out
}

// Progress returns rank r's continuous iteration progress at time ts:
// the number of completed iterations, linearly interpolated inside the
// current iteration. This is the trace-side analogue of the oscillator
// phase θ_i/2π.
func (t *Trace) Progress(r int, ts float64) float64 {
	ends := t.IterEnds[r]
	if len(ends) == 0 {
		return 0
	}
	idx := sort.Search(len(ends), func(i int) bool { return ends[i] > ts })
	if idx == len(ends) {
		return float64(len(ends))
	}
	var prevEnd float64
	if idx > 0 {
		prevEnd = ends[idx-1]
	}
	if ends[idx] <= prevEnd {
		return float64(idx)
	}
	frac := (ts - prevEnd) / (ends[idx] - prevEnd)
	if frac < 0 {
		frac = 0
	}
	return float64(idx) + frac
}

// WaveMeasurement is the result of idle-wave front extraction from a
// trace.
type WaveMeasurement struct {
	// Origin is the injected rank.
	Origin int
	// Arrival[r] is the first time rank r showed an excess wait after the
	// injection (NaN when the wave never reached it).
	Arrival []float64
	// Speed is the front speed in ranks per second.
	Speed float64
	// SpeedRanksPerIter is the speed expressed in ranks per average
	// undisturbed iteration duration.
	SpeedRanksPerIter float64
	// R2 is the goodness of the rank-vs-arrival fit.
	R2 float64
	// Reached counts ranks with a detected arrival.
	Reached int
}

// MeasureIdleWave extracts the idle wave launched by a delay injected at
// rank origin at time t0: for every rank it finds the first communication
// span after t0 that exceeds the pre-injection baseline wait by more than
// threshold seconds, then fits distance-vs-arrival. periodic controls
// ring-distance wrapping; iterDur converts the speed to ranks/iteration
// (pass the undisturbed iteration time).
func (t *Trace) MeasureIdleWave(origin int, t0, threshold, iterDur float64, periodic bool) (WaveMeasurement, error) {
	n := t.N()
	if origin < 0 || origin >= n {
		return WaveMeasurement{}, errors.New("trace: origin out of range")
	}
	wm := WaveMeasurement{Origin: origin, Arrival: make([]float64, n)}
	for r := 0; r < n; r++ {
		wm.Arrival[r] = math.NaN()
		// Baseline: the longest comm span strictly before t0.
		var base float64
		for _, s := range t.Spans[r] {
			if s.End > t0 {
				break
			}
			if s.Kind == SpanComm && s.Duration() > base {
				base = s.Duration()
			}
		}
		for _, s := range t.Spans[r] {
			if s.End <= t0 || s.Kind != SpanComm {
				continue
			}
			if s.Duration() > base+threshold {
				start := s.Start
				if start < t0 {
					start = t0
				}
				wm.Arrival[r] = start
				break
			}
		}
	}
	var xs, ys []float64
	for r := 0; r < n; r++ {
		if r == origin || math.IsNaN(wm.Arrival[r]) {
			continue
		}
		d := r - origin
		if d < 0 {
			d = -d
		}
		if periodic && n-d < d {
			d = n - d
		}
		xs = append(xs, wm.Arrival[r])
		ys = append(ys, float64(d))
		wm.Reached++
	}
	if len(xs) < 3 {
		return wm, errors.New("trace: idle wave reached too few ranks")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return wm, err
	}
	wm.Speed = math.Abs(fit.Slope)
	wm.R2 = fit.R2
	if iterDur > 0 {
		wm.SpeedRanksPerIter = wm.Speed * iterDur
	}
	return wm, nil
}

// DesyncMeasurement quantifies the computational-wavefront structure of a
// trace over an observation window.
type DesyncMeasurement struct {
	// Skew[r] is rank r's mean iteration-progress offset (in iterations)
	// relative to rank 0 over the window.
	Skew []float64
	// Spread is max skew − min skew: the trace analogue of the
	// oscillator phase spread.
	Spread float64
	// MeanAbsAdjacent is the mean |skew difference| between adjacent
	// ranks — near zero in lockstep, finite in a wavefront.
	MeanAbsAdjacent float64
}

// MeasureDesync samples iteration progress on a uniform grid of nSamples
// points over [w0, w1] and reports the skew structure.
func (t *Trace) MeasureDesync(w0, w1 float64, nSamples int) (DesyncMeasurement, error) {
	if w1 <= w0 || nSamples < 1 {
		return DesyncMeasurement{}, errors.New("trace: invalid desync window")
	}
	n := t.N()
	dm := DesyncMeasurement{Skew: make([]float64, n)}
	for k := 0; k < nSamples; k++ {
		ts := w0 + (w1-w0)*float64(k)/float64(nSamples)
		p0 := t.Progress(0, ts)
		for r := 0; r < n; r++ {
			dm.Skew[r] += t.Progress(r, ts) - p0
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := range dm.Skew {
		dm.Skew[r] /= float64(nSamples)
		if dm.Skew[r] < lo {
			lo = dm.Skew[r]
		}
		if dm.Skew[r] > hi {
			hi = dm.Skew[r]
		}
	}
	dm.Spread = hi - lo
	for r := 1; r < n; r++ {
		dm.MeanAbsAdjacent += math.Abs(dm.Skew[r] - dm.Skew[r-1])
	}
	if n > 1 {
		dm.MeanAbsAdjacent /= float64(n - 1)
	}
	return dm, nil
}

// MeanIterationTime returns the average iteration duration of rank r over
// its recorded iterations (0 when fewer than 2 marks exist).
func (t *Trace) MeanIterationTime(r int) float64 {
	ends := t.IterEnds[r]
	if len(ends) < 2 {
		return 0
	}
	return (ends[len(ends)-1] - ends[0]) / float64(len(ends)-1)
}

// Utilization summarizes one rank's time budget.
type Utilization struct {
	Rank            int
	Compute, Comm   float64
	ComputeFraction float64
}

// UtilizationReport returns the per-rank time budget of the trace —
// the summary table ITAC shows next to the timeline.
func (t *Trace) UtilizationReport() []Utilization {
	out := make([]Utilization, t.N())
	for r := range out {
		comp := t.TimeInState(r, SpanCompute)
		comm := t.TimeInState(r, SpanComm)
		u := Utilization{Rank: r, Compute: comp, Comm: comm}
		if tot := comp + comm; tot > 0 {
			u.ComputeFraction = comp / tot
		}
		out[r] = u
	}
	return out
}
