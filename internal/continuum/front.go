package continuum

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// Front is a measured continuum wavefront: the per-sample position of
// the leading (rightmost) steep gradient, plus the fitted front motion —
// the continuum analogue of core.WaveFront.
type Front struct {
	// Ts are the sample times and Positions the per-sample front
	// positions (NaN where no gradient exceeded the threshold).
	Ts, Positions []float64
	// Detected counts samples with a detected front.
	Detected int
	// Velocity is the fitted d(position)/dt (signed; positive moves
	// toward larger x) and Speed its magnitude.
	Velocity, Speed float64
	// R2 is the goodness of the position-vs-time fit.
	R2 float64
}

// frontPosition returns the position of the rightmost forward pair whose
// gap magnitude |θ(x+a) − θ(x)| exceeds eps — the midpoint of the pair —
// or NaN when the field is everywhere flatter than eps. Only forward
// pairs count (no periodic wrap pair): the anti-diffusive instability
// grows fastest at the zone boundary (wavelength 2a, the zigzag state),
// which a central difference reads as zero.
func frontPosition(g Grid, th []float64, eps float64) float64 {
	for i := len(th) - 2; i >= 0; i-- {
		if math.Abs(th[i+1]-th[i]) > eps {
			return g.X(i) + 0.5*g.A
		}
	}
	return math.NaN()
}

// measureFront fits the detected front positions against time and fills
// in the Front summary: the single fit implementation, reached through
// FrontTracker.Finish.
func measureFront(ts, positions []float64) (Front, error) {
	f := Front{Ts: ts, Positions: positions}
	var xs, ys []float64
	for k, p := range positions {
		if math.IsNaN(p) {
			continue
		}
		xs = append(xs, ts[k])
		ys = append(ys, p)
		f.Detected++
	}
	if len(xs) < 3 {
		return f, errors.New("continuum: front detected in fewer than 3 samples")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return f, err
	}
	f.Velocity = fit.Slope
	f.Speed = math.Abs(fit.Slope)
	f.R2 = fit.R2
	return f, nil
}

// FrontTracker measures the continuum wavefront online, analogous to
// core.WaveDetector: each sample row is reduced to one front position as
// it streams by, so no trajectory is ever materialized. Memory is
// O(nSamples) scalars (two floats per sample), independent of the grid
// size M. It is the one implementation of the front metric, and the
// tests pin it bit for bit to a trajectory-walking oracle on continuum
// and POM rows.
//
// The zero value tracks on a unit-spacing grid adopted from the stream
// width at Begin — the right reading for discrete families (one rank
// per spacing); set Grid explicitly to track in physical continuum
// coordinates.
type FrontTracker struct {
	// Grid is the spatial grid; a zero Grid adopts {M: n, A: 1} at Begin.
	Grid Grid
	// Eps is the gap threshold; 0 selects 0.15.
	Eps float64

	width   int
	ts, pos []float64
}

// Begin implements sim.Sink.
func (f *FrontTracker) Begin(n, nSamples int) {
	if f.Grid.M == 0 {
		f.Grid = Grid{M: n, A: 1}
	}
	f.width = n
	if cap(f.ts) < nSamples {
		f.ts = make([]float64, 0, nSamples)
		f.pos = make([]float64, 0, nSamples)
	}
	f.ts, f.pos = f.ts[:0], f.pos[:0]
}

// Sample implements sim.Sink.
func (f *FrontTracker) Sample(t float64, theta []float64) {
	eps := f.Eps
	if eps <= 0 {
		eps = 0.15
	}
	f.ts = append(f.ts, t)
	f.pos = append(f.pos, frontPosition(f.Grid, theta, eps))
}

// Finish fits the accumulated front positions. A stream whose width does
// not match the grid is an error once any row of it was measured.
func (f *FrontTracker) Finish() (Front, error) {
	if len(f.ts) > 0 && f.width != f.Grid.M {
		return Front{}, errors.New("continuum: stream width does not match tracker grid")
	}
	return measureFront(
		append([]float64(nil), f.ts...),
		append([]float64(nil), f.pos...),
	)
}
