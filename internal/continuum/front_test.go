package continuum

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// frontField builds a desynchronizing field with a pulse seed: the
// anti-diffusive regime where a sharpening front actually develops.
func frontField() (*Field, []float64) {
	f := &Field{
		Grid:      Grid{M: 64, A: 1},
		Potential: potential.NewDesync(1.2),
		K:         2,
	}
	theta0 := make([]float64, 64)
	for i := range theta0 {
		d := (f.Grid.X(i) - 20) / 3
		theta0[i] = -2 * math.Exp(-d*d)
	}
	return f, theta0
}

// TestFrontTrackerMatchesRows is the bitwise pin of the streaming
// tracker against the trajectory-walking MeasureFrontRows oracle over the
// rows of a continuum run: same per-sample positions, same fit, bit for
// bit.
func TestFrontTrackerMatchesRows(t *testing.T) {
	const tEnd, nSamples, eps = 30.0, 121, 0.15
	f, theta0 := frontField()

	res := solve(t, f, theta0, tEnd, nSamples)
	want, err := MeasureFrontRows(f.Grid, res.Ts, res.Ys, eps)
	if err != nil {
		t.Fatal(err)
	}

	tracker := &FrontTracker{Grid: f.Grid, Eps: eps}
	if err := runStream(f, theta0, tEnd, nSamples, tracker); err != nil {
		t.Fatal(err)
	}
	got, err := tracker.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if got.Detected != want.Detected || got.Detected < 3 {
		t.Fatalf("detected %d vs %d (need >= 3)", got.Detected, want.Detected)
	}
	if len(got.Positions) != len(want.Positions) {
		t.Fatalf("positions length %d vs %d", len(got.Positions), len(want.Positions))
	}
	for k := range want.Positions {
		if math.Float64bits(got.Positions[k]) != math.Float64bits(want.Positions[k]) {
			t.Fatalf("position %d: %v vs %v", k, got.Positions[k], want.Positions[k])
		}
	}
	for name, pair := range map[string][2]float64{
		"velocity": {got.Velocity, want.Velocity},
		"speed":    {got.Speed, want.Speed},
		"r2":       {got.R2, want.R2},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s: streamed %v, materialized %v", name, pair[0], pair[1])
		}
	}
}

// TestFrontTrackerFlatField checks the no-front path: a flat field never
// crosses the threshold and Finish reports a clean error.
func TestFrontTrackerFlatField(t *testing.T) {
	f := &Field{Grid: Grid{M: 16, A: 1}, Potential: potential.Tanh{}, K: 1}
	tracker := &FrontTracker{Grid: f.Grid}
	if err := runStream(f, make([]float64, 16), 5, 21, tracker); err != nil {
		t.Fatal(err)
	}
	if _, err := tracker.Finish(); err == nil {
		t.Error("flat field: want a too-few-samples error")
	}
}

// frontPOMConfig builds a POM chain with a one-off delay: the launched
// idle wave is the moving steep-gap structure the tracker follows.
func frontPOMConfig(t *testing.T, dde bool, workers int) core.Config {
	t.Helper()
	tp, err := topology.NextNeighbor(32, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		N:          32,
		TComp:      0.8,
		TComm:      0.2,
		Potential:  potential.Tanh{},
		Topology:   tp,
		LocalNoise: noise.Delay{Rank: 0, Start: 10, Duration: 2, Extra: 100},
		Workers:    workers,
	}
	if dde {
		cfg.InteractionNoise = noise.ConstantLag{Lag: 0.05}
	}
	return cfg
}

// TestFrontTrackerMatchesRowsPOM pins the tracker across families and
// solver paths: for a POM idle wave at Workers = 1 and 4, ODE and DDE,
// the streamed Front equals the MeasureFrontRows oracle over the
// materialized rows on the unit-spacing grid (one rank per lattice site).
func TestFrontTrackerMatchesRowsPOM(t *testing.T) {
	const tEnd, nSamples, eps = 60.0, 241, 0.15
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
			mMat, err := core.New(frontPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := mMat.Run(tEnd, nSamples)
			if err != nil {
				t.Fatal(err)
			}
			g := Grid{M: 32, A: 1}
			want, wantErr := MeasureFrontRows(g, res.Ts, res.Theta, eps)

			mStr, err := core.New(frontPOMConfig(t, tc.dde, tc.workers))
			if err != nil {
				t.Fatal(err)
			}
			tracker := &FrontTracker{Grid: g, Eps: eps}
			if _, err := sim.RunStream(mStr, tEnd, nSamples, tracker); err != nil {
				t.Fatal(err)
			}
			got, gotErr := tracker.Finish()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: rows %v, streamed %v", wantErr, gotErr)
			}
			if wantErr != nil {
				t.Fatalf("POM wave not detected: %v", wantErr)
			}
			if got.Detected != want.Detected || got.Detected < 3 {
				t.Fatalf("detected %d vs %d", got.Detected, want.Detected)
			}
			for k := range want.Positions {
				if math.Float64bits(got.Positions[k]) != math.Float64bits(want.Positions[k]) {
					t.Fatalf("position %d: %v vs %v", k, got.Positions[k], want.Positions[k])
				}
			}
			if math.Float64bits(got.Speed) != math.Float64bits(want.Speed) ||
				math.Float64bits(got.R2) != math.Float64bits(want.R2) {
				t.Fatalf("fit differs: speed %v vs %v, r2 %v vs %v",
					got.Speed, want.Speed, got.R2, want.R2)
			}
		})
	}
}

// TestFrontTrackerZeroValueAdoptsUnitGrid checks the zero-value
// convenience: Begin adopts a unit-spacing grid of the stream width.
func TestFrontTrackerZeroValueAdoptsUnitGrid(t *testing.T) {
	f, theta0 := frontField()
	tracker := &FrontTracker{}
	if err := runStream(f, theta0, 10, 41, tracker); err != nil {
		t.Fatal(err)
	}
	if tracker.Grid.M != 64 || tracker.Grid.A != 1 {
		t.Fatalf("adopted grid %+v", tracker.Grid)
	}
	if _, err := tracker.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}
