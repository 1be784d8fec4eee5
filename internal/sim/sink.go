package sim

// Sink consumes the sample rows of a streaming integration in time order.
// RunStream drives a sink instead of materializing Result.Ys, so a sweep
// over many parameter points holds O(N) accumulator state per point
// rather than a full trajectory — the memory model that makes
// million-scenario batch sweeps feasible (see PERFORMANCE.md).
type Sink interface {
	// Begin is called once before the first sample with the state width n
	// and the total number of rows the run will emit.
	Begin(n, nSamples int)
	// Sample consumes one row: the state at time t. y is reused between
	// calls and must not be retained.
	Sample(t float64, y []float64)
}

// SinkFunc adapts a plain callback (e.g. a row writer) to the Sink
// interface with a no-op Begin.
type SinkFunc func(t float64, y []float64)

// Begin implements Sink.
func (SinkFunc) Begin(int, int) {}

// Sample implements Sink.
func (f SinkFunc) Sample(t float64, y []float64) { f(t, y) }

// multiSink fans one sample stream out to several sinks.
type multiSink []Sink

// Begin implements Sink.
func (ms multiSink) Begin(n, nSamples int) {
	for _, s := range ms {
		s.Begin(n, nSamples)
	}
}

// Sample implements Sink.
func (ms multiSink) Sample(t float64, y []float64) {
	for _, s := range ms {
		s.Sample(t, y)
	}
}

// Tee combines several sinks into one that replays every row to each, in
// order — the standard way to run multiple accumulators over one pass.
func Tee(sinks ...Sink) Sink { return multiSink(sinks) }

// Replay drives a sink over materialized rows exactly as RunStream feeds
// it a run: Begin with the row width and the row count, then one Sample
// per row in order. pomsim's materialized report and the quickstart
// example read their recorded rows back through the streaming sinks with
// it, so each metric has a single implementation.
func Replay(sink Sink, ts []float64, rows [][]float64) {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	sink.Begin(width, len(rows))
	for k, row := range rows {
		sink.Sample(ts[k], row)
	}
}
