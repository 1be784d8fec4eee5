package continuum

import (
	"errors"
	"math"
	"testing"

	"repro/internal/potential"
	"repro/internal/sim"
)

// The trajectory-walking front measurement, kept from before the metric
// became a streaming sink. It shares frontPosition and measureFront with
// the tracker, and the tracker is pinned against it bit for bit.

// MeasureFrontRows measures the front over materialized sample rows on
// the given grid: per row the rightmost steep forward pair (threshold
// eps; 0 selects 0.15), then a position-vs-time line fit. It is the
// reference the streaming FrontTracker is pinned against bitwise, and
// works for any phase field rows — a POM chain measures through it with
// a unit-spacing grid.
func MeasureFrontRows(g Grid, ts []float64, rows [][]float64, eps float64) (Front, error) {
	if len(ts) != len(rows) {
		return Front{}, errors.New("continuum: ts and rows length mismatch")
	}
	if eps <= 0 {
		eps = 0.15
	}
	positions := make([]float64, len(rows))
	for k, th := range rows {
		positions[k] = frontPosition(g, th, eps)
	}
	return measureFront(append([]float64(nil), ts...), positions)
}

// oracleSpreadTimeline is the trajectory walk of the per-row phase
// spread max θ − min θ that SpreadAccumulator's timeline is pinned
// against.
func oracleSpreadTimeline(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for k, row := range rows {
		lo, hi := row[0], row[0]
		for _, v := range row[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		out[k] = hi - lo
	}
	return out
}

// TestResultMetricsMatchOracles replays recorded rows through
// FrontTracker and compares the result with the trajectory-walking
// MeasureFrontRows oracle bit for bit, error values included, for
// thresholds 0 (the 0.15 default), 0.15 and 1 on a developing front, one
// sample and no samples. It also replays those rows, and a relaxing
// linear tanh field, through SpreadAccumulator and compares its timeline
// with the oracle spreads bit for bit.
func TestResultMetricsMatchOracles(t *testing.T) {
	f, theta0 := frontField()
	run := solve(t, f, theta0, 30, 121)
	results := map[string]*sim.Result{
		"front-run":  run,
		"one-sample": {Ts: run.Ts[:1], Ys: run.Ys[:1]},
		"empty":      {},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	relax := &Field{Grid: Grid{M: 24, A: 1, Periodic: true}, Potential: potential.Tanh{}, K: 2, Linear: true}
	wave := make([]float64, relax.Grid.M)
	for i := range wave {
		wave[i] = math.Sin(2 * math.Pi * float64(i) / float64(relax.Grid.M))
	}
	spreadRuns := map[string]*sim.Result{"linear-relax": solve(t, relax, wave, 12, 25)}
	for name, r := range results {
		spreadRuns[name] = r
	}
	for name, r := range spreadRuns {
		spread := &sim.SpreadAccumulator{KeepTimeline: true}
		sim.Replay(spread, r.Ts, r.Ys)
		want := oracleSpreadTimeline(r.Ys)
		if len(spread.Timeline) != len(want) {
			t.Errorf("%s: spread timeline has %d entries, oracle %d", name, len(spread.Timeline), len(want))
			continue
		}
		for k := range want {
			if !same(spread.Timeline[k], want[k]) {
				t.Errorf("%s: spread[%d] = %v, oracle %v", name, k, spread.Timeline[k], want[k])
			}
		}
	}
	for name, r := range results {
		for _, eps := range []float64{0, 0.15, 1} {
			tracker := &FrontTracker{Grid: f.Grid, Eps: eps}
			sim.Replay(tracker, r.Ts, r.Ys)
			got, gotErr := tracker.Finish()
			want, wantErr := MeasureFrontRows(f.Grid, r.Ts, r.Ys, eps)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("%s eps=%v: error %v, oracle %v", name, eps, gotErr, wantErr)
			}
			if got.Detected != want.Detected || len(got.Ts) != len(want.Ts) || len(got.Positions) != len(want.Positions) ||
				!same(got.Velocity, want.Velocity) || !same(got.Speed, want.Speed) || !same(got.R2, want.R2) {
				t.Errorf("%s eps=%v: front %+v, oracle %+v", name, eps, got, want)
				continue
			}
			for k := range want.Positions {
				if !same(got.Ts[k], want.Ts[k]) || !same(got.Positions[k], want.Positions[k]) {
					t.Errorf("%s eps=%v: sample %d (%v, %v), oracle (%v, %v)",
						name, eps, k, got.Ts[k], got.Positions[k], want.Ts[k], want.Positions[k])
				}
			}
		}
	}
}
