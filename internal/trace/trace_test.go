package trace

import (
	"math"
	"testing"
)

func TestRecordMergesContiguous(t *testing.T) {
	tr := NewTrace(2)
	tr.Record(0, SpanCompute, 0, 1)
	tr.Record(0, SpanCompute, 1, 2) // merges
	tr.Record(0, SpanComm, 2, 3)
	tr.Record(0, SpanCompute, 3, 3) // zero-length dropped
	if len(tr.Spans[0]) != 2 {
		t.Fatalf("spans = %v", tr.Spans[0])
	}
	if tr.Spans[0][0].Duration() != 2 {
		t.Errorf("merged span duration = %v", tr.Spans[0][0].Duration())
	}
	if tr.End != 3 {
		t.Errorf("End = %v", tr.End)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tr := NewTrace(1)
	tr.Spans[0] = []Span{{SpanCompute, 0, 2}, {SpanComm, 1, 3}}
	if err := tr.Validate(); err == nil {
		t.Error("want overlap error")
	}
	tr2 := NewTrace(1)
	tr2.Spans[0] = []Span{{SpanCompute, 2, 1}}
	if err := tr2.Validate(); err == nil {
		t.Error("want negative-span error")
	}
	tr3 := NewTrace(1)
	tr3.IterEnds[0] = []float64{2, 1}
	if err := tr3.Validate(); err == nil {
		t.Error("want non-increasing iteration error")
	}
}

func TestTimeInStateAndFractions(t *testing.T) {
	tr := NewTrace(1)
	tr.Record(0, SpanCompute, 0, 3)
	tr.Record(0, SpanComm, 3, 4)
	if tr.TimeInState(0, SpanCompute) != 3 {
		t.Error("compute time wrong")
	}
	if tr.TimeInState(0, SpanComm) != 1 {
		t.Error("comm time wrong")
	}
	if f := tr.CommFractions()[0]; f != 0.25 {
		t.Errorf("comm fraction = %v", f)
	}
}

func TestProgressInterpolation(t *testing.T) {
	tr := NewTrace(1)
	tr.MarkIterEnd(0, 1)
	tr.MarkIterEnd(0, 2)
	tr.MarkIterEnd(0, 4)
	if p := tr.Progress(0, 0.5); p != 0.5 {
		t.Errorf("Progress(0.5) = %v", p)
	}
	if p := tr.Progress(0, 1.5); p != 1.5 {
		t.Errorf("Progress(1.5) = %v", p)
	}
	if p := tr.Progress(0, 3); p != 2.5 {
		t.Errorf("Progress(3) = %v", p)
	}
	if p := tr.Progress(0, 10); p != 3 {
		t.Errorf("Progress(10) = %v (clamp)", p)
	}
	var empty Trace
	_ = empty
	tr2 := NewTrace(1)
	if tr2.Progress(0, 1) != 0 {
		t.Error("no-iteration Progress must be 0")
	}
}

func TestMeanIterationTime(t *testing.T) {
	tr := NewTrace(1)
	tr.MarkIterEnd(0, 1)
	tr.MarkIterEnd(0, 3)
	tr.MarkIterEnd(0, 5)
	if got := tr.MeanIterationTime(0); got != 2 {
		t.Errorf("MeanIterationTime = %v", got)
	}
	tr2 := NewTrace(1)
	tr2.MarkIterEnd(0, 1)
	if tr2.MeanIterationTime(0) != 0 {
		t.Error("single mark must give 0")
	}
}

// buildWaveTrace synthesizes a trace where a delay at rank 2 at t=10
// produces excess waits hitting rank 2+d at time 10+d (speed 1 rank/s).
func buildWaveTrace(n int) *Trace {
	tr := NewTrace(n)
	for r := 0; r < n; r++ {
		// Regular pre-injection pattern: 0.8 compute / 0.2 comm cycles.
		for k := 0; k < 10; k++ {
			t0 := float64(k)
			tr.Record(r, SpanCompute, t0, t0+0.8)
			tr.Record(r, SpanComm, t0+0.8, t0+1)
		}
		d := r - 2
		if d < 0 {
			d = -d
		}
		arr := 10 + float64(d)
		// Excess wait of 1.5s at arrival.
		tr.Record(r, SpanCompute, 10, arr)
		tr.Record(r, SpanComm, arr, arr+1.5)
	}
	return tr
}

func TestMeasureIdleWave(t *testing.T) {
	tr := buildWaveTrace(12)
	wm, err := tr.MeasureIdleWave(2, 10, 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Reached < 10 {
		t.Errorf("reached = %d", wm.Reached)
	}
	if math.Abs(wm.Speed-1) > 0.05 {
		t.Errorf("speed = %v, want ≈ 1 rank/s", wm.Speed)
	}
	if wm.R2 < 0.98 {
		t.Errorf("R2 = %v", wm.R2)
	}
	if math.Abs(wm.SpeedRanksPerIter-wm.Speed) > 1e-12 {
		t.Error("ranks/iter conversion with iterDur=1 must equal speed")
	}
}

func TestMeasureIdleWaveErrors(t *testing.T) {
	tr := NewTrace(4)
	if _, err := tr.MeasureIdleWave(9, 0, 0.1, 1, false); err == nil {
		t.Error("want origin range error")
	}
	if _, err := tr.MeasureIdleWave(0, 0, 0.1, 1, false); err == nil {
		t.Error("want too-few-ranks error on empty trace")
	}
}

func TestMeasureDesyncLockstepVsWavefront(t *testing.T) {
	// Lockstep: all ranks end iterations at the same times.
	n := 8
	lock := NewTrace(n)
	for r := 0; r < n; r++ {
		for k := 1; k <= 20; k++ {
			lock.MarkIterEnd(r, float64(k))
		}
	}
	dm, err := lock.MeasureDesync(10, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Spread > 1e-9 || dm.MeanAbsAdjacent > 1e-9 {
		t.Errorf("lockstep skew: %+v", dm)
	}

	// Wavefront: rank r lags r·0.3 iterations behind.
	wave := NewTrace(n)
	for r := 0; r < n; r++ {
		off := 0.3 * float64(r)
		for k := 1; k <= 30; k++ {
			wave.MarkIterEnd(r, float64(k)+off)
		}
	}
	dm2, err := wave.MeasureDesync(10, 25, 50)
	if err != nil {
		t.Fatal(err)
	}
	wantSpread := 0.3 * float64(n-1)
	if math.Abs(dm2.Spread-wantSpread) > 0.1 {
		t.Errorf("wavefront spread = %v, want ≈ %v", dm2.Spread, wantSpread)
	}
	if math.Abs(dm2.MeanAbsAdjacent-0.3) > 0.05 {
		t.Errorf("adjacent skew = %v, want ≈ 0.3", dm2.MeanAbsAdjacent)
	}
	if _, err := wave.MeasureDesync(5, 5, 10); err == nil {
		t.Error("want invalid-window error")
	}
}

func TestUtilizationReport(t *testing.T) {
	tr := NewTrace(2)
	tr.Record(0, SpanCompute, 0, 3)
	tr.Record(0, SpanComm, 3, 4)
	rep := tr.UtilizationReport()
	if len(rep) != 2 {
		t.Fatalf("ranks = %d", len(rep))
	}
	if rep[0].Compute != 3 || rep[0].Comm != 1 || rep[0].ComputeFraction != 0.75 {
		t.Errorf("rank 0 utilization = %+v", rep[0])
	}
	if rep[1].ComputeFraction != 0 {
		t.Errorf("idle rank fraction = %v", rep[1].ComputeFraction)
	}
}
