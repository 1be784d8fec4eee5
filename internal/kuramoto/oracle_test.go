package kuramoto

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The trajectory-walking bodies of the asymptotic order and the slip
// count, kept from before both metrics became streaming sinks. They are
// the references the sinks are pinned against bit for bit.

// oracleAsymptoticOrder is the trajectory walk of the asymptotic order
// parameter r∞ that asymptoticOrder is pinned against.
func oracleAsymptoticOrder(r *sim.Result, finalFraction float64) float64 {
	n := len(r.Ys)
	if n == 0 {
		return 0
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	var sum float64
	for k := start; k < n; k++ {
		rk, _ := stats.OrderParameter(r.Ys[k])
		sum += rk
	}
	return sum / float64(n-start)
}

// CountSlipsRows counts phase-slip events over materialized trajectory
// rows: for each oscillator, the drift-corrected phase increment
// (θ_i(t_k) − θ_i(t_{k−1})) − (θ̄(t_k) − θ̄(t_{k−1})) is accumulated, and
// every excursion past 2π counts one slip and resets the accumulator.
// It is the reference the streaming SlipCounter is pinned against
// bitwise.
func CountSlipsRows(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	// The ensemble means are oscillator-independent; hoisting them out of
	// the per-oscillator loop is bitwise-neutral (same values, same
	// per-oscillator accumulation order) and turns the pass from
	// O(n²·samples) into O(n·samples).
	means := make([]float64, len(rows))
	for k, row := range rows {
		means[k] = mathx.Mean(row)
	}
	n := len(rows[0])
	slips := 0
	for i := 0; i < n; i++ {
		var acc float64
		prev := rows[0][i]
		for k := 1; k < len(rows); k++ {
			cur := rows[k][i]
			acc += (cur - prev) - (means[k] - means[k-1])
			if math.Abs(acc) >= mathx.TwoPi {
				slips++
				acc = 0
			}
			prev = cur
		}
	}
	return slips
}

// mustRun records a run of the model cfg describes.
func mustRun(t *testing.T, cfg Config, tEnd float64, nSamples int) *sim.Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(m, tEnd, nSamples)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// replaySlips counts the phase slips of recorded rows by replaying them
// through SlipCounter.
func replaySlips(r *sim.Result) int {
	s := &SlipCounter{}
	sim.Replay(s, r.Ts, r.Ys)
	return s.Slips()
}

// TestResultMetricsMatchOracles compares asymptoticOrder and replaySlips,
// which replay recorded rows through OrderAccumulator and SlipCounter,
// with their trajectory-walking oracles bit for bit, for accumulator final
// fractions −1 (the final sample alone), 0 (the default window, 0.15),
// 0.15, 0.25 and 1 on a slipping run, a 40-oscillator run past the locking
// threshold, one sample and no samples. The oracle reads a final fraction
// of 0 as the final sample alone; the run tells the windows apart.
func TestResultMetricsMatchOracles(t *testing.T) {
	run := mustRun(t, Config{N: 10, K: 0.4, FreqStd: 1, Seed: 11, SpreadInitial: true}, 60, 301)
	results := map[string]*sim.Result{
		"slipping-run": run,
		"locking-run":  mustRun(t, Config{N: 40, K: 1.2, FreqStd: 1, Seed: 9, SpreadInitial: true}, 30, 121),
		"one-sample":   {Ts: run.Ts[:1], Ys: run.Ys[:1]},
		"empty":        {},
	}
	for name, r := range results {
		for _, ff := range []float64{-1, 0, 0.15, 0.25, 1} {
			oracleFF := ff
			if ff == 0 {
				oracleFF = 0.15
			}
			got, want := asymptoticOrder(r, ff), oracleAsymptoticOrder(r, oracleFF)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s ff=%v: asymptoticOrder %v, oracle %v", name, ff, got, want)
			}
		}
		if got, want := replaySlips(r), CountSlipsRows(r.Ys); got != want {
			t.Errorf("%s: replayed slips %d, oracle %d", name, got, want)
		}
	}
	if asymptoticOrder(run, -1) == asymptoticOrder(run, 0) {
		t.Fatal("the run no longer distinguishes the final-sample window from the default window")
	}
}
