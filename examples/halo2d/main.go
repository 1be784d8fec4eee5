// Halo2d: the paper's phenomenology on a realistic domain-decomposition
// workload — a 2-D periodic halo exchange (4-point stencil torus), the
// communication pattern of stencil solvers. The degree-4 periodic
// topology is much *stiffer* than the 1-D chain: in the traces it
// suppresses the memory-bound desynchronization almost entirely (the
// §5.2.2 stiffness effect taken to its limit), while the oscillator model
// with the desync potential still settles into a zigzag broken-symmetry
// state with gaps at the potential's stable zero.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	const nx, ny = 6, 5
	n := nx * ny

	tp, err := topology.Torus2D(nx, ny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-D halo exchange on a %d×%d torus (%d ranks, degree 4)\n\n", nx, ny, n)

	// --- MPI side: both kernels ----------------------------------------
	for _, k := range []kernels.Kernel{kernels.Pisolver(), kernels.STREAM()} {
		progs, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, 250)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := cluster.NewSim(cluster.Meggie((n+9)/10), progs, cluster.Options{
			Delays: []cluster.DelayInjection{{Rank: n / 2, Iter: 40, Extra: 10 * k.CoreSeconds}},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run()
		if err != nil {
			log.Fatal(err)
		}
		tr := res.Trace
		dm, err := tr.MeasureDesync(res.Makespan*0.75, res.Makespan*0.97, 40)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s makespan %.3fs  socket0 %.1f GB/s  asymptotic skew spread %.2f iterations\n",
			k.Name, res.Makespan, res.AggregateBandwidth(0)/1e9, dm.Spread)
	}

	// --- Model side: desynchronization on the torus ---------------------
	sigma := 1.2
	cfg := core.Config{
		N:           n,
		TComp:       0.8,
		TComm:       0.2,
		Potential:   potential.NewDesync(sigma),
		Topology:    tp,
		Init:        core.RandomPhases,
		PerturbSeed: 2,
		PerturbAmp:  0.02,
		LocalNoise:  noise.Delay{Rank: n / 2, Start: 20, Duration: 2, Extra: 100},
	}
	m, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lock := &sim.LockAccumulator{FinalFraction: 0.2}
	var final []float64
	keepFinal := sim.SinkFunc(func(_ float64, theta []float64) {
		final = append(final[:0], theta...)
	})
	run, err := sim.RunSummaryTo(m, 300, 601, 0, 0.1, lock, keepFinal)
	if err != nil {
		log.Fatal(err)
	}
	r, _ := stats.OrderParameter(final)
	fmt.Printf("\nmodel (desync σ=%.1f): asymptotic order parameter r = %.3f, spread %.2f rad, freq-locked %v\n",
		sigma, r, run.AsymptoticSpread, lock.Locked(1e-2))

	// Gap statistics along the x-direction of the torus.
	var gapsX []float64
	for y := 0; y < ny; y++ {
		for x := 0; x < nx-1; x++ {
			gapsX = append(gapsX, final[y*nx+x+1]-final[y*nx+x])
		}
	}
	sum, _ := stats.Summarize(gapsX)
	fmt.Printf("x-direction gaps: median |Δθ| = %.3f (potential stable zero 2σ/3 = %.3f)\n",
		absMedian(gapsX), 2*sigma/3)
	fmt.Printf("gap distribution: min %.3f  max %.3f  std %.3f\n", sum.Min, sum.Max, sum.Std)
	fmt.Println("\nNote the contrast: the stiff 2-D torus keeps the *traces* in near")
	fmt.Println("lockstep (skew ≈ 0 even for STREAM), while the 1-D chains of Fig. 2")
	fmt.Println("desynchronize — communication stiffness suppresses the wavefront,")
	fmt.Println("exactly the §5.2.2 trend.")
	fmt.Println("\nfinal torus phases (sparkline per row):")
	for y := 0; y < ny; y++ {
		fmt.Printf("  row %d: %s\n", y, viz.Sparkline(final[y*nx:(y+1)*nx]))
	}
}

// absMedian returns the median of |xs|.
func absMedian(xs []float64) float64 {
	a := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		a[i] = x
	}
	s, err := stats.Summarize(a)
	if err != nil {
		return 0
	}
	return s.Median
}
