package cluster

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// traceSystemResult runs a small disturbed bulk-synchronous program and
// returns its result (12 ranks, 30 iterations, one delay injection that
// launches an idle wave).
func traceSystemResult(t *testing.T) *Result {
	t.Helper()
	tp, err := topology.NextNeighbor(12, true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := BulkSynchronous(tp, Workload{Seconds: 0.05, Bytes: 1e3}, 1024, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(Meggie(2), progs, Options{
		Delays: []DelayInjection{{Rank: 6, Iter: 10, Extra: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceSystemReplaysProgress pins the facade against the trace: the
// integrated phases match 2π × trace.Progress at every sample to solver
// accuracy, the field freezes at 2π·iters, and the natural run length is
// the makespan.
func TestTraceSystemReplaysProgress(t *testing.T) {
	res := traceSystemResult(t)
	sys, err := res.System()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dim() != 12 {
		t.Fatalf("dim = %d", sys.Dim())
	}
	if sys.SuggestTEnd() != res.Makespan {
		t.Fatalf("SuggestTEnd = %v, makespan %v", sys.SuggestTEnd(), res.Makespan)
	}

	out, err := sim.Run(sys, res.Makespan, 121)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k, row := range out.Ys {
		for i, th := range row {
			want := res.Trace.Progress(i, out.Ts[k])
			if d := math.Abs(th/mathx.TwoPi - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.02 {
		t.Fatalf("replayed progress deviates by %v iterations", worst)
	}
	final := out.Ys[len(out.Ys)-1]
	for i, th := range final {
		if math.Abs(th/mathx.TwoPi-30) > 0.02 {
			t.Fatalf("rank %d final progress %v, want 30", i, th/mathx.TwoPi)
		}
	}
}

// TestTraceSystemStreamsSkew drives the shared accumulators over the
// facade: the injected delay shows up as a transient phase-spread
// excursion well above the steady-state skew.
func TestTraceSystemStreamsSkew(t *testing.T) {
	res := traceSystemResult(t)
	sys, err := res.System()
	if err != nil {
		t.Fatal(err)
	}
	spread := &sim.SpreadAccumulator{}
	if _, err := sim.RunStream(sys, res.Makespan, 201, spread); err != nil {
		t.Fatal(err)
	}
	// The 0.5 s injection at 0.05 s/iter stalls rank 6 by ≈ 10
	// iterations, but the idle wave stalls its neighbors too, so the
	// max-min spread peaks at a few iterations — still far above the
	// sub-iteration steady-state skew.
	if spread.Max() < mathx.TwoPi*3 {
		t.Errorf("max spread %v rad, want a clear delay excursion", spread.Max())
	}
	if spread.Max() > mathx.TwoPi*15 {
		t.Errorf("max spread %v rad implausibly large", spread.Max())
	}
}

// TestTraceSystemDeterministic re-runs the whole pipeline and compares
// streamed rows bitwise — the property archive resume relies on.
func TestTraceSystemDeterministic(t *testing.T) {
	collect := func() []float64 {
		res := traceSystemResult(t)
		sys, err := res.System()
		if err != nil {
			t.Fatal(err)
		}
		var rows []float64
		if _, err := sim.RunStream(sys, res.Makespan, 61, sim.SinkFunc(func(_ float64, y []float64) {
			rows = append(rows, y...)
		})); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("row lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("replay not deterministic at %d", i)
		}
	}
}

// TestNewTraceSystemValidation covers the error paths.
func TestNewTraceSystemValidation(t *testing.T) {
	if _, err := NewTraceSystem(nil); err == nil {
		t.Error("nil trace: want error")
	}
	if _, err := NewTraceSystem(trace.NewTrace(0)); err == nil {
		t.Error("zero ranks: want error")
	}
	if _, err := NewTraceSystem(trace.NewTrace(3)); err == nil {
		t.Error("no iteration marks: want error")
	}
}
