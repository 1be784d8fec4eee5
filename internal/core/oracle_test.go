package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/noise"
	"repro/internal/stats"
)

// The trajectory-walking bodies of the run metrics, kept verbatim from the
// materialized Result methods they once were. They are the references the
// streaming sinks are pinned against bit for bit; only the receiver became
// the first parameter. A final fraction of 0 here means the final sample
// alone (the final two for the lock test), the way a negative fraction
// does for the sinks.

// oracleSpreadTimeline is the phase spread of every sample row.
func oracleSpreadTimeline(r *Result) []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k] = stats.PhaseSpread(th)
	}
	return out
}

// oracleOrderTimeline is the Kuramoto order parameter r of every sample
// row.
func oracleOrderTimeline(r *Result) []float64 {
	out := make([]float64, len(r.Theta))
	for k, th := range r.Theta {
		out[k], _ = stats.OrderParameter(th)
	}
	return out
}

// oracleResyncTime is the trajectory walk of the resynchronization time.
func oracleResyncTime(r *Result, eps float64) (float64, error) {
	spread := oracleSpreadTimeline(r)
	idx := -1
	for k := len(spread) - 1; k >= 0; k-- {
		if spread[k] >= eps {
			break
		}
		idx = k
	}
	if idx < 0 {
		return 0, errors.New("core: system did not resynchronize")
	}
	return r.Ts[idx], nil
}

// oracleAsymptoticSpread is the trajectory walk of the asymptotic spread.
func oracleAsymptoticSpread(r *Result, finalFraction float64) float64 {
	n := len(r.Theta)
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
	spread := oracleSpreadTimeline(r)
	var sum float64
	for k := start; k < n; k++ {
		sum += spread[k]
	}
	return sum / float64(n-start)
}

// oracleAsymptoticGaps is the trajectory walk of the asymptotic gaps.
func oracleAsymptoticGaps(r *Result, finalFraction float64) []float64 {
	n := len(r.Theta)
	if n == 0 {
		return nil
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n {
		start = n - 1
	}
	// Derive the gap width from the sample rows themselves: a Result built
	// by hand or by a streaming adapter may carry no Model.
	width := len(r.Theta[0]) - 1
	if width < 0 {
		width = 0
	}
	gaps := make([]float64, width)
	for k := start; k < n; k++ {
		th := r.Theta[k]
		for i := 1; i < len(th) && i-1 < len(gaps); i++ {
			gaps[i-1] += th[i] - th[i-1]
		}
	}
	for i := range gaps {
		gaps[i] /= float64(n - start)
	}
	return gaps
}

// oracleMeasureWave is the trajectory walk of the idle-wave front.
func oracleMeasureWave(r *Result, origin int, delayStart float64, threshold float64) (WaveFront, error) {
	n := r.Model.cfg.N
	if origin < 0 || origin >= n {
		return WaveFront{}, errors.New("core: wave origin out of range")
	}
	if threshold <= 0 {
		threshold = 0.15
	}
	omega := r.Model.omega

	// Baseline lag right before the delay hits.
	k0 := 0
	for k, t := range r.Ts {
		if t >= delayStart {
			break
		}
		k0 = k
	}
	base := make([]float64, n)
	for i := 0; i < n; i++ {
		base[i] = omega*r.Ts[k0] - r.Theta[k0][i]
	}

	wf := WaveFront{Origin: origin, ArrivalTime: make([]float64, n)}
	for i := range wf.ArrivalTime {
		wf.ArrivalTime[i] = math.NaN()
	}
	for i := 0; i < n; i++ {
		for k := k0 + 1; k < len(r.Ts); k++ {
			lag := omega*r.Ts[k] - r.Theta[k][i]
			if lag-base[i] > threshold {
				wf.ArrivalTime[i] = r.Ts[k]
				break
			}
		}
	}

	var xs, ys []float64 // x: arrival time, y: distance from origin
	for i := 0; i < n; i++ {
		if math.IsNaN(wf.ArrivalTime[i]) || i == origin {
			continue
		}
		d := i - origin
		if d < 0 {
			d = -d
		}
		// On a ring the wave can travel both ways; use the shorter arc.
		if r.Model.cfg.Topology.Periodic && n-d < d {
			d = n - d
		}
		xs = append(xs, wf.ArrivalTime[i])
		ys = append(ys, float64(d))
		wf.Reached++
	}
	if len(xs) < 3 {
		return wf, errors.New("core: wave reached too few ranks to fit a speed")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return wf, err
	}
	wf.Speed = math.Abs(fit.Slope)
	wf.SpeedRanksPerPeriod = wf.Speed * r.Model.period
	wf.R2 = fit.R2
	return wf, nil
}

// oracleFrequencyLocked is the trajectory walk of the frequency-lock test.
func oracleFrequencyLocked(r *Result, finalFraction, tol float64) bool {
	n := len(r.Ts)
	if n < 3 {
		return false
	}
	start := n - int(float64(n)*finalFraction)
	if start < 0 {
		start = 0
	}
	if start >= n-1 {
		start = n - 2
	}
	dt := r.Ts[n-1] - r.Ts[start]
	if dt <= 0 {
		return false
	}
	freqs := make([]float64, r.Model.cfg.N)
	for i := range freqs {
		freqs[i] = (r.Theta[n-1][i] - r.Theta[start][i]) / dt
	}
	lo, hi := freqs[0], freqs[0]
	for _, f := range freqs[1:] {
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

// sameFloat reports bitwise equality (NaN equals the same NaN).
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestResultMetricsMatchOracles replays recorded rows through each
// metric's streaming sink and compares the result with the metric's
// trajectory-walking oracle: bit for bit, error values included, for sink
// final fractions −1 (the final sample alone; the final two for the lock
// test), 0 (the sink's default window), 0.15 and 1. The delay run and the
// lock rows tell the windows apart, and the one-sample and empty Results
// cover the window clamps.
func TestResultMetricsMatchOracles(t *testing.T) {
	cfg := baseConfig(t, 16)
	cfg.LocalNoise = noise.Delay{Rank: 3, Start: 10, Duration: 1, Extra: 20}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(60, 121)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 runs ahead until t = 18 and then keeps the common frequency:
	// locked over the final two samples, unlocked over any longer window.
	lock := &Result{Model: m}
	for k := 0; k < 20; k++ {
		row := make([]float64, 16)
		for i := range row {
			row[i] = float64(k)
		}
		row[1] += 0.5 * math.Min(float64(k), 18)
		lock.Ts = append(lock.Ts, float64(k))
		lock.Theta = append(lock.Theta, row)
	}
	results := map[string]*Result{
		"delay-run":  run,
		"lock-rows":  lock,
		"one-sample": {Model: m, Ts: run.Ts[:1], Theta: run.Theta[:1]},
		"empty":      {Model: m},
	}
	for name, r := range results {
		for _, ff := range []float64{-1, 0, 0.15, 1} {
			// The oracles take the window the sink reads ff as.
			oracleFF, oracleLockFF := ff, ff
			if ff == 0 {
				oracleFF, oracleLockFF = 0.15, 0.2
			}
			if got, want := asymptoticSpread(r, ff), oracleAsymptoticSpread(r, oracleFF); !sameFloat(got, want) {
				t.Errorf("%s ff=%v: spread sink %v, oracle %v", name, ff, got, want)
			}
			got, want := asymptoticGaps(r, ff), oracleAsymptoticGaps(r, oracleFF)
			if len(got) != len(want) {
				t.Errorf("%s ff=%v: gap sink %v, oracle %v", name, ff, got, want)
			}
			for i := range want {
				if i < len(got) && !sameFloat(got[i], want[i]) {
					t.Errorf("%s ff=%v: gap[%d] %v, oracle %v", name, ff, i, got[i], want[i])
				}
			}
			for _, tol := range []float64{1e-2, 1e-6} {
				if got, want := frequencyLocked(r, ff, tol), oracleFrequencyLocked(r, oracleLockFF, tol); got != want {
					t.Errorf("%s ff=%v tol=%v: lock sink %v, oracle %v", name, ff, tol, got, want)
				}
			}
		}
		for _, eps := range []float64{0.1, 1e-9} {
			got, gotErr := resyncTime(r, eps)
			want, wantErr := oracleResyncTime(r, eps)
			if !sameFloat(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s eps=%v: resync sink (%v, %v), oracle (%v, %v)", name, eps, got, gotErr, want, wantErr)
			}
		}
		for _, origin := range []int{3, 16} {
			got, gotErr := measureWave(r, origin, 10, 0)
			if len(r.Theta) == 0 && origin < 16 {
				// The oracle indexes the pre-delay row and panics on no
				// samples; the detector reports too few ranks instead.
				if gotErr == nil {
					t.Errorf("%s: wave detector on no samples returned no error", name)
				}
				continue
			}
			want, wantErr := oracleMeasureWave(r, origin, 10, 0)
			if !sameErr(gotErr, wantErr) || got.Origin != want.Origin || got.Reached != want.Reached ||
				!sameFloat(got.Speed, want.Speed) || !sameFloat(got.SpeedRanksPerPeriod, want.SpeedRanksPerPeriod) ||
				!sameFloat(got.R2, want.R2) || len(got.ArrivalTime) != len(want.ArrivalTime) {
				t.Errorf("%s origin=%d: wave detector (%+v, %v), oracle (%+v, %v)", name, origin, got, gotErr, want, wantErr)
				continue
			}
			for i := range want.ArrivalTime {
				if !sameFloat(got.ArrivalTime[i], want.ArrivalTime[i]) {
					t.Errorf("%s origin=%d: arrival[%d] %v, oracle %v", name, origin, i, got.ArrivalTime[i], want.ArrivalTime[i])
				}
			}
		}
	}
	// The lock rows must separate the final-two window from the default
	// window, or the cases above could not tell −1 from 0.
	if !frequencyLocked(lock, -1, 1e-2) || frequencyLocked(lock, 0, 1e-2) {
		t.Fatal("lock rows no longer distinguish the final-two window from the default window")
	}
}
