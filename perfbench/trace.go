package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// epoch anchors every timestamp the benchmark takes.
//
//pomvet:allow wallclock the benchmark measures wall time; no reading feeds simulation state
var epoch = time.Now()

// nanotime returns monotonic nanoseconds since epoch.
func nanotime() int64 {
	//pomvet:allow wallclock benchmark timing only, never simulation state
	return int64(time.Since(epoch))
}

// Span is one timed call into a layer. Spans of one run, sweep point or
// request share Req. Busy is the time spent inside the layer: End-Start
// for a single call, the summed call times for a span that aggregates
// per-row calls (Calls > 1).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per layer call.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, Calls: 1})
	return len(t.spans)
}

// End closes the span Begin opened.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Busy = now, now-s.Start
}

// Add records a finished span and returns its id.
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// SelfTimes returns, per request id, each layer's self time in ns: the
// busy time of its spans minus the busy time of their child spans.
func (t *Tracer) SelfTimes() map[int]map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.Busy
	}
	out := make(map[int]map[string]int64)
	for _, s := range t.spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]int64)
			out[s.Req] = m
		}
		m[s.Name] += s.Busy - child[s.ID]
	}
	return out
}

// Calls returns, per request id, the call count of each layer.
func (t *Tracer) Calls() map[int]map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]map[string]int)
	for _, s := range t.spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]int)
			out[s.Req] = m
		}
		m[s.Name] += s.Calls
	}
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedSink wraps a sink and accumulates the time spent in its Sample
// calls (plus any calls timed through call), to be recorded as one
// aggregated span per run.
type timedSink struct {
	sink              sim.Sink
	first, last, busy int64
	calls             int
}

// Begin implements sim.Sink.
func (s *timedSink) Begin(n, nSamples int) { s.sink.Begin(n, nSamples) }

// Sample implements sim.Sink.
func (s *timedSink) Sample(t float64, y []float64) {
	t0 := nanotime()
	s.sink.Sample(t, y)
	s.add(t0, nanotime())
}

// call runs fn as one more call of the layer.
func (s *timedSink) call(fn func() error) error {
	t0 := nanotime()
	err := fn()
	s.add(t0, nanotime())
	return err
}

func (s *timedSink) add(t0, t1 int64) {
	if s.calls == 0 {
		s.first = t0
	}
	s.last = t1
	s.busy += t1 - t0
	s.calls++
}

// span returns the aggregated span of the wrapped layer.
func (s *timedSink) span(name string, parent, req int) Span {
	return Span{Parent: parent, Name: name, Req: req, Start: s.first, End: s.last, Busy: s.busy, Calls: s.calls}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
