package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/ode"
	"repro/internal/stats"
)

// teeSummary replays rows through a Tee of the four public accumulators
// with RunSummaryTo's settings, and reads the Summary through the same
// getters as the summary sink.
func teeSummary(ts []float64, rows [][]float64, resyncEps, finalFraction float64) *Summary {
	if resyncEps == 0 {
		resyncEps = 0.1
	}
	spread := &SpreadAccumulator{FinalFraction: finalFraction}
	order := &OrderAccumulator{FinalFraction: finalFraction}
	resync := &ResyncDetector{Eps: resyncEps}
	gaps := &GapAccumulator{FinalFraction: finalFraction}
	Replay(Tee(spread, order, resync, gaps), ts, rows)
	ref := summarySink{spread: *spread, order: *order, resync: *resync, gaps: *gaps}
	return ref.summary(ode.Stats{})
}

// onePassSummary replays rows through RunSummaryTo's summary sink.
func onePassSummary(ts []float64, rows [][]float64, resyncEps, finalFraction float64) *Summary {
	sink := newSummarySink(resyncEps, finalFraction)
	Replay(sink, ts, rows)
	return sink.summary(ode.Stats{})
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal: Go lets the compiler swap the operands of a float add,
// so which of two NaN operands' payloads a sum keeps can differ between
// two compilations of the same expression (inlined or not, instrumented
// for fuzzing or not).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// summaryBitsDiffer reports the first field in which two summaries
// differ bitwise (NaN payloads aside), or "" when they are identical.
func summaryBitsDiffer(got, want *Summary) string {
	gv, wv := got.Vector(), want.Vector()
	for i := range gv {
		if !sameBits(gv[i], wv[i]) {
			return fmt.Sprintf("Vector[%d] = %v, tee %v", i, gv[i], wv[i])
		}
	}
	if len(got.Gaps) != len(want.Gaps) {
		return fmt.Sprintf("%d gaps, tee %d", len(got.Gaps), len(want.Gaps))
	}
	for i := range got.Gaps {
		if !sameBits(got.Gaps[i], want.Gaps[i]) {
			return fmt.Sprintf("Gaps[%d] = %v, tee %v", i, got.Gaps[i], want.Gaps[i])
		}
	}
	return ""
}

// summarySpecials are the row values the scalar and packed paths treat
// differently: signed zeros, NaN, infinities, the subnormal minimum and
// phases at and beyond 2²⁹, where SincosInto falls back to math.Sincos.
var summarySpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, 1 << 29, -(1 << 30), 1e300,
}

// summaryRows draws nRows rows of width phases from seed. The rows
// contract towards a common drifting phase, so late rows fall below
// the resync threshold. When every is nonzero, about one element in
// every draws a special value.
func summaryRows(seed uint64, width, nRows, every int) (ts []float64, rows [][]float64) {
	rng := stats.NewRNG(seed)
	decay := rng.Uniform(0, 0.5)
	for k := 0; k < nRows; k++ {
		amp := 8 * math.Exp(-decay*float64(k))
		row := make([]float64, width)
		for i := range row {
			row[i] = 0.3*float64(k) + amp*rng.Uniform(-1, 1)
			if every > 0 && rng.Intn(every) == 0 {
				row[i] = summarySpecials[rng.Intn(len(summarySpecials))]
			}
		}
		ts = append(ts, 0.25*float64(k))
		rows = append(rows, row)
	}
	return ts, rows
}

// FuzzSummaryMatchesTee pins the one-pass summary sink bit for bit to a
// Tee of the four public accumulators over random rows: widths 1–130
// (across the 64-phase and 8-lane chunk edges), special values, and
// arbitrary resync thresholds and windows.
func FuzzSummaryMatchesTee(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(40), uint8(0), 0.0, 0.0)
	f.Add(uint64(2), uint8(0), uint8(3), uint8(2), 0.15, 0.1)
	f.Add(uint64(3), uint8(63), uint8(17), uint8(5), -1.0, 0.5)
	f.Add(uint64(4), uint8(64), uint8(9), uint8(1), 0.5, 1e-9)
	f.Add(uint64(5), uint8(129), uint8(25), uint8(7), 1.0, 2.0)
	f.Add(uint64(6), uint8(200), uint8(1), uint8(3), 2.0, -1.0)
	f.Add(uint64(7), uint8(15), uint8(60), uint8(11), 0.9, math.Inf(1))
	f.Add(uint64(8), uint8(2), uint8(30), uint8(4), math.NaN(), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, width, nRows, every uint8, finalFraction, resyncEps float64) {
		w := 1 + int(width)%130
		ts, rows := summaryRows(seed, w, 1+int(nRows)%64, int(every)%16)
		got := onePassSummary(ts, rows, resyncEps, finalFraction)
		want := teeSummary(ts, rows, resyncEps, finalFraction)
		if d := summaryBitsDiffer(got, want); d != "" {
			t.Fatalf("width %d, %d rows, window %v, eps %v: %s", w, len(rows), finalFraction, resyncEps, d)
		}
	})
}

// TestSummarySinkAllocFree pins the one-pass Sample at zero heap
// allocations once Begin has sized the order scratch.
func TestSummarySinkAllocFree(t *testing.T) {
	for _, n := range []int{8, 130} {
		_, rows := summaryRows(uint64(n), n, 4, 0)
		sink := newSummarySink(0, 0)
		sink.Begin(n, 1000)
		k := 0
		if a := testing.AllocsPerRun(100, func() {
			sink.Sample(float64(k), rows[k%len(rows)])
			k++
		}); a != 0 {
			t.Errorf("N=%d: summary Sample allocates %v times per row", n, a)
		}
	}
}

// TestOrderAccumulatorGrowsScratch checks that a row wider than Begin's
// width, or a row without Begin, still yields OrderParameter's r.
func TestOrderAccumulatorGrowsScratch(t *testing.T) {
	_, rows := summaryRows(9, 70, 2, 0)
	acc := &OrderAccumulator{}
	acc.Begin(3, 2)
	acc.Sample(0, rows[0])
	want, _ := stats.OrderParameter(rows[0])
	if math.Float64bits(acc.Final()) != math.Float64bits(want) {
		t.Errorf("wide row: r = %v, want %v", acc.Final(), want)
	}
	bare := &OrderAccumulator{}
	bare.Sample(0, rows[1])
	want, _ = stats.OrderParameter(rows[1])
	if math.Float64bits(bare.Final()) != math.Float64bits(want) {
		t.Errorf("no Begin: r = %v, want %v", bare.Final(), want)
	}
}

// nanAfter1 is a scalar system whose right-hand side turns NaN after
// t = 1, so the solver fails part-way through the run.
type nanAfter1 struct{}

func (nanAfter1) Dim() int                { return 1 }
func (nanAfter1) InitialState() []float64 { return []float64{0} }
func (nanAfter1) Eval(t float64, _, dydt []float64) {
	dydt[0] = 1
	if t > 1 {
		dydt[0] = math.NaN()
	}
}

// TestRunStreamKeepsStatsOnError checks that a failed run reports the
// solver work done before the failure along with the wrapped error.
func TestRunStreamKeepsStatsOnError(t *testing.T) {
	st, err := RunStream(nanAfter1{}, 5, 11, SinkFunc(func(float64, []float64) {}))
	if !errors.Is(err, ode.ErrNonFinite) {
		t.Fatalf("err = %v, want ode.ErrNonFinite", err)
	}
	if st.Steps <= 0 || st.Evals <= 0 {
		t.Errorf("stats = %v, want the partial solver work", st)
	}
}

// BenchmarkSummarySink times one row of RunSummaryTo's reduction at the
// sweep point's N = 8: the Tee of the four public accumulators against
// the one-pass summary sink.
func BenchmarkSummarySink(b *testing.B) {
	const n, nRows = 8, 2001
	ts, rows := summaryRows(1, n, nRows, 0)
	for _, c := range []struct {
		name string
		mk   func() Sink
	}{
		{"tee", func() Sink {
			return Tee(&SpreadAccumulator{}, &OrderAccumulator{}, &ResyncDetector{Eps: 0.1}, &GapAccumulator{})
		}},
		{"one-pass", func() Sink { return newSummarySink(0, 0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			sink := c.mk()
			sink.Begin(n, nRows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % nRows
				sink.Sample(ts[k], rows[k])
			}
		})
	}
}
