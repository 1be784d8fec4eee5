// Megasweep: a 10⁵-point parameter sweep in bounded memory — the
// million-scenario batch workload of the ROADMAP's north star, made
// feasible by the streaming sample-sink subsystem. Every point integrates
// a full oscillator model, but its samples flow through online
// accumulators (sim.RunSummary) and only an O(N) summary crosses the
// worker boundary (sweep.RunReduce), so the resident heap stays flat no
// matter how many points or samples the sweep covers. A materialized sweep
// of the same size would retain points × samples × N trajectory floats —
// hundreds of gigabytes at this scale.
//
//	go run ./examples/megasweep                 # full 10⁵-point sweep
//	go run ./examples/megasweep -points 2000    # quick look
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	var (
		points  = flag.Int("points", 100_000, "number of sweep points")
		n       = flag.Int("n", 8, "oscillators per point")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		tEnd    = flag.Float64("t", 40, "integration end time per point")
		samples = flag.Int("samples", 401, "samples per point (streamed, never stored)")
	)
	flag.Parse()

	// The 2-D grid covers interaction horizon σ and coupling βκ; point i
	// is derived on the fly so not even the parameter list is materialized.
	const (
		sigmaLo, sigmaHi = 0.6, 2.4
		bkLo, bkHi       = 1.0, 4.0
	)
	side := int(math.Sqrt(float64(*points)))
	if side < 1 {
		side = 1
	}
	type param struct{ Sigma, BK float64 }
	gen := func(i int) param {
		r, c := i/side, i%side
		den := float64(side - 1)
		if den == 0 {
			den = 1
		}
		return param{
			Sigma: sigmaLo + (sigmaHi-sigmaLo)*float64(r%side)/den,
			BK:    bkLo + (bkHi-bkLo)*float64(c)/den,
		}
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// The reduction keeps aggregates only: how many points settled into a
	// wavefront, how tightly the settled gaps track the 2σ/3 stable zero,
	// and the peak heap along the way — the bounded-memory evidence.
	var (
		done, resynced int
		gapErrSum      float64
		gapErrMax      float64
		maxHeap        uint64
		//pomvet:allow wallclock operator progress meter: throughput reporting only, never simulation state
		start = time.Now()
	)
	err := sweep.RunReduce(context.Background(), *points, *workers,
		gen,
		func(_ context.Context, p param) (*sim.Summary, error) {
			tp, err := topology.NextNeighbor(*n, false)
			if err != nil {
				return nil, err
			}
			m, err := core.New(core.Config{
				N: *n, TComp: 0.8, TComm: 0.2,
				Potential:        potential.NewDesync(p.Sigma),
				Topology:         tp,
				CouplingOverride: p.BK,
				Init:             core.RandomPhases,
				PerturbSeed:      uint64(1 + *n),
				PerturbAmp:       0.02,
				LocalNoise:       noise.Delay{Rank: *n / 3, Start: 5, Duration: 1, Extra: 20},
			})
			if err != nil {
				return nil, err
			}
			return sim.RunSummary(m, *tEnd, *samples, 0.1, 0.15)
		},
		func(i int, p param, s *sim.Summary) {
			done++
			if s.Resynced {
				resynced++
			} else {
				relErr := math.Abs(s.MeanAbsGap-2*p.Sigma/3) / (2 * p.Sigma / 3)
				gapErrSum += relErr
				if relErr > gapErrMax {
					gapErrMax = relErr
				}
			}
			if done%10_000 == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > maxHeap {
					maxHeap = ms.HeapAlloc
				}
				fmt.Printf("  %7d / %d points  heap %5.1f MiB  %.0f pts/s\n",
					done, *points, float64(ms.HeapAlloc)/(1<<20),
					//pomvet:allow wallclock operator progress meter
					float64(done)/time.Since(start).Seconds())
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > maxHeap {
		maxHeap = after.HeapAlloc
	}

	wavefront := done - resynced
	//pomvet:allow wallclock operator progress meter
	elapsed := time.Since(start).Seconds()
	fmt.Printf("\n%d points in %.1fs (%d workers requested)\n",
		done, elapsed, *workers)
	fmt.Printf("  resynchronized: %d   wavefront: %d\n", resynced, wavefront)
	if wavefront > 0 {
		fmt.Printf("  settled gap vs 2σ/3: mean rel. error %.3f, max %.3f\n",
			gapErrSum/float64(wavefront), gapErrMax)
	}
	trajectoryBytes := float64(*points) * float64(*samples) * float64(*n) * 8
	fmt.Printf("  peak heap: %.1f MiB (materialized trajectories would need %.1f GiB)\n",
		float64(maxHeap)/(1<<20), trajectoryBytes/(1<<30))
}
