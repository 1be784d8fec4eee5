package core

import (
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The run metrics of a recorded Result, read by replaying its rows
// through the streaming sink that implements each one. finalFraction is
// the sink's FinalFraction: 0 selects its default window, and a negative
// value the final sample alone (the final two for the lock test).

func spreadTimeline(r *Result) []float64 {
	a := &sim.SpreadAccumulator{KeepTimeline: true}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Timeline
}

func asymptoticSpread(r *Result, finalFraction float64) float64 {
	a := &sim.SpreadAccumulator{FinalFraction: finalFraction}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Asymptotic()
}

func asymptoticGaps(r *Result, finalFraction float64) []float64 {
	a := &sim.GapAccumulator{FinalFraction: finalFraction}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Gaps()
}

func frequencyLocked(r *Result, finalFraction, tol float64) bool {
	a := &sim.LockAccumulator{FinalFraction: finalFraction}
	sim.Replay(a, r.Ts, r.Theta)
	return a.Locked(tol)
}

func resyncTime(r *Result, eps float64) (float64, error) {
	d := &sim.ResyncDetector{Eps: eps}
	sim.Replay(d, r.Ts, r.Theta)
	return d.ResyncTime()
}

func measureWave(r *Result, origin int, delayStart, threshold float64) (WaveFront, error) {
	w, err := NewWaveDetector(r.Model, origin, delayStart, threshold)
	if err != nil {
		return WaveFront{}, err
	}
	sim.Replay(w, r.Ts, r.Theta)
	return w.Finish()
}

// streamCase builds one model configuration per (dde, workers) combination
// so the streamed and materialized runs integrate fresh, identical models.
func streamCase(t *testing.T, dde bool, workers int) Config {
	t.Helper()
	tp, err := topology.NextNeighbor(16, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:           16,
		TComp:       0.8,
		TComm:       0.2,
		Potential:   potential.NewDesync(1.5),
		Topology:    tp,
		Init:        RandomPhases,
		PerturbSeed: 5,
		PerturbAmp:  0.02,
		LocalNoise:  noise.Delay{Rank: 3, Start: 10, Duration: 1, Extra: 50},
		Workers:     workers,
	}
	if dde {
		cfg.InteractionNoise = noise.ConstantLag{Lag: 0.05}
	}
	return cfg
}

// TestRunStreamMatchesRun pins the streaming contract end to end: for both
// the ODE and the DDE (interaction-noise) solver paths, serial and with a
// worker pool, every accumulator output is bitwise identical to the
// trajectory-walking oracle of the metric on the materialized Result.
func TestRunStreamMatchesRun(t *testing.T) {
	const (
		tEnd     = 120.0
		nSamples = 241
		eps      = 0.1
		ff       = 0.15
	)
	for _, tc := range []struct {
		name    string
		dde     bool
		workers int
	}{
		{"ode/workers1", false, 1},
		{"ode/workers4", false, 4},
		{"dde/workers1", true, 1},
		{"dde/workers4", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := streamCase(t, tc.dde, tc.workers)
			mMat, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mMat.Run(tEnd, nSamples)
			if err != nil {
				t.Fatal(err)
			}

			mStr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spread := &sim.SpreadAccumulator{FinalFraction: ff, KeepTimeline: true}
			order := &sim.OrderAccumulator{KeepTimeline: true}
			resync := &sim.ResyncDetector{Eps: eps}
			gaps := &sim.GapAccumulator{FinalFraction: ff}
			stats, err := sim.RunStream(mStr, tEnd, nSamples, sim.Tee(spread, order, resync, gaps))
			if err != nil {
				t.Fatal(err)
			}
			if stats != res.Stats {
				t.Errorf("solver stats diverged: streamed %v, materialized %v", stats, res.Stats)
			}

			wantSpread := oracleSpreadTimeline(res)
			if len(spread.Timeline) != len(wantSpread) {
				t.Fatalf("spread timeline length %d, want %d", len(spread.Timeline), len(wantSpread))
			}
			for k := range wantSpread {
				if spread.Timeline[k] != wantSpread[k] {
					t.Fatalf("spread[%d]: streamed %v, materialized %v (not bitwise equal)",
						k, spread.Timeline[k], wantSpread[k])
				}
			}
			wantOrder := oracleOrderTimeline(res)
			for k := range wantOrder {
				if order.Timeline[k] != wantOrder[k] {
					t.Fatalf("order[%d]: streamed %v, materialized %v", k, order.Timeline[k], wantOrder[k])
				}
			}
			if got, want := spread.Asymptotic(), oracleAsymptoticSpread(res, ff); got != want {
				t.Errorf("asymptotic spread: streamed %v, materialized %v", got, want)
			}

			wantRt, wantErr := oracleResyncTime(res, eps)
			gotRt, gotErr := resync.ResyncTime()
			if (gotErr == nil) != (wantErr == nil) || gotRt != wantRt {
				t.Errorf("resync: streamed (%v, %v), materialized (%v, %v)", gotRt, gotErr, wantRt, wantErr)
			}

			wantGaps := oracleAsymptoticGaps(res, ff)
			gotGaps := gaps.Gaps()
			if len(gotGaps) != len(wantGaps) {
				t.Fatalf("gap width %d, want %d", len(gotGaps), len(wantGaps))
			}
			for i := range wantGaps {
				if gotGaps[i] != wantGaps[i] {
					t.Fatalf("gap[%d]: streamed %v, materialized %v", i, gotGaps[i], wantGaps[i])
				}
			}
		})
	}
}

// TestWaveDetectorMatchesMeasureWave pins the streaming wave-front metric
// against the trajectory-walking MeasureWave oracle on the Fig. 2 delay
// scenario.
func TestWaveDetectorMatchesMeasureWave(t *testing.T) {
	tp, err := topology.NextNeighbor(40, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N: 40, TComp: 0.8, TComm: 0.2,
		Potential:  potential.Tanh{},
		Topology:   tp,
		LocalNoise: noise.Delay{Rank: 5, Start: 20, Duration: 2.5, Extra: 100},
	}
	const tEnd, nSamples = 200.0, 2001

	mMat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mMat.Run(tEnd, nSamples)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := oracleMeasureWave(res, 5, 20, 0.15)

	mStr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewWaveDetector(mStr, 5, 20, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunStream(mStr, tEnd, nSamples, det); err != nil {
		t.Fatal(err)
	}
	got, gotErr := det.Finish()

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("errors diverged: streamed %v, materialized %v", gotErr, wantErr)
	}
	if got.Origin != want.Origin || got.Reached != want.Reached {
		t.Errorf("front shape: streamed %+v, materialized %+v", got, want)
	}
	if got.Speed != want.Speed || got.SpeedRanksPerPeriod != want.SpeedRanksPerPeriod || got.R2 != want.R2 {
		t.Errorf("fit: streamed (%v, %v, %v), materialized (%v, %v, %v)",
			got.Speed, got.SpeedRanksPerPeriod, got.R2, want.Speed, want.SpeedRanksPerPeriod, want.R2)
	}
	for i := range want.ArrivalTime {
		g, w := got.ArrivalTime[i], want.ArrivalTime[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("arrival[%d]: streamed %v, materialized %v", i, g, w)
		}
	}
	if want.Reached < 10 {
		t.Fatalf("wave reached only %d ranks; scenario too weak to pin the metric", want.Reached)
	}
}

// TestRunSummaryResync checks the convenience reduction on a
// resynchronizing scenario against the trajectory-walking oracles.
func TestRunSummaryResync(t *testing.T) {
	cfg := baseConfig(t, 16)
	cfg.LocalNoise = noise.Delay{Rank: 3, Start: 10, Duration: 1, Extra: 20}

	mMat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mMat.Run(150, 301)
	if err != nil {
		t.Fatal(err)
	}
	mStr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.RunSummary(mStr, 150, 301, 0.1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := oracleResyncTime(res, 0.1)
	if err != nil {
		t.Fatalf("scenario must resynchronize: %v", err)
	}
	if !sum.Resynced || sum.ResyncTime != rt {
		t.Errorf("summary resync (%v, %v), materialized %v", sum.Resynced, sum.ResyncTime, rt)
	}
	if got, want := sum.AsymptoticSpread, oracleAsymptoticSpread(res, 0.15); got != want {
		t.Errorf("summary asymptotic spread %v, want %v", got, want)
	}
	if sum.Stats != res.Stats {
		t.Errorf("summary stats %v, want %v", sum.Stats, res.Stats)
	}
}

// TestRunSummaryToExtraSinks checks the archive hook: extra sinks teed
// into RunSummaryTo see exactly the rows the accumulators see (count,
// times, and values), and the summary itself is unchanged by their
// presence.
func TestRunSummaryToExtraSinks(t *testing.T) {
	cfg := baseConfig(t, 8)
	cfg.LocalNoise = noise.Delay{Rank: 3, Start: 10, Duration: 1, Extra: 20}
	const tEnd, nSamples = 60.0, 121

	mPlain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunSummary(mPlain, tEnd, nSamples, 0.1, 0.15)
	if err != nil {
		t.Fatal(err)
	}

	mTee, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	var lastT float64
	var width int
	tap := sim.SinkFunc(func(ts float64, theta []float64) {
		rows++
		lastT = ts
		width = len(theta)
	})
	got, err := sim.RunSummaryTo(mTee, tEnd, nSamples, 0.1, 0.15, tap)
	if err != nil {
		t.Fatal(err)
	}
	if rows != nSamples || lastT != tEnd || width != 8 {
		t.Errorf("extra sink saw %d rows (last t=%v, width %d), want %d rows to t=%v width 8",
			rows, lastT, width, nSamples, tEnd)
	}
	if got.AsymptoticSpread != want.AsymptoticSpread || got.ResyncTime != want.ResyncTime ||
		got.MeanAbsGap != want.MeanAbsGap || got.Stats != want.Stats {
		t.Errorf("extra sinks perturbed the summary: %+v vs %+v", got, want)
	}
}

// TestSummaryVector pins the archive metric layout.
func TestSummaryVector(t *testing.T) {
	s := &sim.Summary{
		FinalSpread: 1, MaxSpread: 2, AsymptoticSpread: 3,
		FinalOrder: 4, MinOrder: 5,
		Resynced: true, ResyncTime: 6, MeanAbsGap: 7,
	}
	want := []float64{1, 2, 3, 4, 5, 1, 6, 7}
	got := s.Vector()
	if len(got) != len(want) {
		t.Fatalf("vector length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("vector[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if v := (&sim.Summary{}).Vector(); v[5] != 0 {
		t.Error("non-resynced flag must encode as 0")
	}
}

// TestAdjacentGapTimelineEmptyRow checks that an empty sample row among
// full ones adds no gaps to the gap sink, though it counts as a sample,
// and does not crash it.
func TestAdjacentGapTimelineEmptyRow(t *testing.T) {
	r := &Result{
		Ts:    []float64{0, 1, 2},
		Theta: [][]float64{{1, 2, 4}, {}, {2, 3, 5}},
	}
	gaps := asymptoticGaps(r, 1)
	if len(gaps) != 2 {
		t.Fatalf("got %d gaps, want 2", len(gaps))
	}
	// Rows 0 and 2 contribute gaps (1, 2) each, and all three rows count.
	if gaps[0] != 2.0/3 || gaps[1] != 4.0/3 {
		t.Errorf("gaps = %v, want [2/3 4/3]", gaps)
	}
}

// TestAsymptoticGapsNilModel is the regression test for the nil-Model
// dereference: rows recorded without a Model must give the gap sink its
// width from the rows themselves.
func TestAsymptoticGapsNilModel(t *testing.T) {
	r := &Result{
		Ts:    []float64{0, 1},
		Theta: [][]float64{{0, 1, 3}, {0, 2, 6}},
	}
	gaps := asymptoticGaps(r, 1)
	if len(gaps) != 2 {
		t.Fatalf("got %d gaps, want 2", len(gaps))
	}
	if gaps[0] != 1.5 || gaps[1] != 3 {
		t.Errorf("gaps = %v, want [1.5 3]", gaps)
	}
	if out := asymptoticGaps(&Result{}, 0.5); len(out) != 0 {
		t.Errorf("no rows must yield no gaps, got %v", out)
	}
}
