package core

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/topology"
)

// zetaOnly hides ZetaInto, forcing the elementwise noise adapter.
type zetaOnly struct{ noise.Local }

// TestRHSNoiseMatchesScalarReference pins the batched-ζ right-hand side
// bitwise to the per-row transcription 2π/(P + ζ_i(t)) + k·Σ V, with ζ
// clamped at −0.9·P, serially and chunked across 3 workers, on the fused
// Desync and tanh passes. The Imbalance entries sit below, at, and above
// the guard. The Sum of Delays (natively and through the elementwise
// fallback) is evaluated before, inside, at the edges of and after its
// windows, in an order that turns the same chunk loud, quiet and loud
// again; with 3 workers the delayed ranks 11 and 30 sit in different
// chunks, so one chunk is loud while its neighbours are quiet.
func TestRHSNoiseMatchesScalarReference(t *testing.T) {
	const n = 40
	tp, err := topology.Stencil(n, []int{-1, 1, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	const period = 1.0
	imb := noise.Imbalance{Extra: map[int]float64{2: -0.95, 3: -0.9 * period, 4: -0.85, 9: math.Copysign(0, -1)}}
	mixed := noise.Sum{
		noise.Delay{Rank: 11, Start: 1, Duration: 2, Extra: 30},
		noise.Jitter{Dist: noise.Gaussian, Amp: 0.4, Refresh: 0.5, Seed: 3},
		imb,
	}
	delays := noise.Sum{
		noise.Delay{Rank: 11, Start: 1, Duration: 2, Extra: 30},
		noise.Delay{Rank: 30, Start: 2, Duration: 1.5, Extra: -0.95},
	}
	locals := []noise.Local{imb, mixed, zetaOnly{mixed}, delays, zetaOnly{delays}, noise.None{}}
	times := []float64{0, 1.5, 2.2, 0.5, math.Nextafter(3, 0), 3, 3.5, 1, 5}
	y := make([]float64, n)
	for i := range y {
		y[i] = 0.9 * math.Sin(0.53*float64(i))
	}
	for _, p := range []potential.Potential{potential.NewDesync(1.1), potential.Tanh{}} {
		for li, local := range locals {
			for _, workers := range []int{1, 3} {
				m, err := New(Config{
					N: n, TComp: 0.8, TComm: 0.2,
					Potential: p, Topology: tp,
					LocalNoise: local, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				nb := tp.Neighbors()
				for _, tm := range times {
					got := make([]float64, n)
					m.Eval(tm, y, got)
					for i := 0; i < n; i++ {
						var c float64
						for _, j := range nb[i] {
							c += p.Eval(y[j] - y[i])
						}
						want := mathx.TwoPi/(m.period+m.zeta(i, tm)) + m.k*c
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%s noise #%d workers=%d t=%v: dydt[%d] = %v, reference %v",
								p.Name(), li, workers, tm, i, got[i], want)
						}
					}
				}
				m.Close()
			}
		}
	}
}
