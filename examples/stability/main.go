// Stability: answer the paper's §6 open questions within the model —
// (1) is the symmetry-breaking transition connected to a Goldstone mode?
// (2) does the model have a useful continuum limit?
//
// Part 1 computes the spectrum of the POM linearization around the
// lockstep and wavefront states for both potentials; part 2 integrates
// the continuum field and shows diffusion (resync) vs. anti-diffusion
// with gradient selection (wavefront).
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/continuum"
	"repro/internal/linstab"
	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	const n = 16
	const k = 2.0
	sigma := 1.5
	desync := potential.NewDesync(sigma)

	fmt.Println("Part 1 — linear stability of the POM steady states")
	fmt.Println()
	ring, err := topology.NextNeighbor(n, true)
	if err != nil {
		log.Fatal(err)
	}
	chain, err := topology.NextNeighbor(n, false)
	if err != nil {
		log.Fatal(err)
	}
	rows := [][]string{}
	report := func(label string, tp *topology.Topology, pot potential.Potential, state []float64) {
		cl, err := linstab.Classify(tp, pot, state, k)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "UNSTABLE"
		if cl.Stable {
			verdict = "stable"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%d", cl.Unstable),
			fmt.Sprintf("%d", cl.ZeroModes),
			fmt.Sprintf("%.4f", cl.MaxEigenvalue),
			verdict,
		})
	}
	report("lockstep + tanh", ring, potential.Tanh{}, linstab.LockstepState(n))
	report("lockstep + desync", ring, desync, linstab.LockstepState(n))
	report("wavefront(2σ/3) + desync", chain, desync,
		linstab.WavefrontState(n, desync.StableZero()))
	fmt.Print(viz.Table(
		[]string{"state", "unstable modes", "zero modes", "max λ", "verdict"}, rows))
	fmt.Println()
	fmt.Println("The wavefront is linearly stable with exactly one zero eigenvalue —")
	fmt.Println("the Goldstone mode of the broken phase symmetry (§6, answered).")
	fmt.Println()

	fmt.Println("Part 2 — continuum limit")
	fmt.Println()
	g := continuum.Grid{M: 64, A: 1, Periodic: false}

	// Synchronizing potential: diffusion flattens a lag bump.
	sync := continuum.Field{Grid: g, Potential: potential.Tanh{}, K: k, Linear: true}
	theta0 := make([]float64, g.M)
	for i := range theta0 {
		x := g.X(i) - g.X(g.M/2)
		theta0[i] = -3 * math.Exp(-x*x/8)
	}
	// The first and last lag spread come from one sink; the spread is
	// max θ − min θ of each streamed row.
	var spread0, spreadEnd float64
	first := true
	if err := run(&sync, theta0, 60, 4, sim.SinkFunc(func(_ float64, th []float64) {
		lo, hi, _ := mathx.MinMax(th)
		if first {
			spread0, first = hi-lo, false
		}
		spreadEnd = hi - lo
	})); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tanh field (D = %.2f): lag spread %.2f → %.2f over 60 periods (diffusive resync)\n",
		sync.Diffusivity(), spread0, spreadEnd)

	// Desynchronizing potential: anti-diffusion selects the 2σ/3 gap.
	front := continuum.Field{Grid: g, Potential: desync, K: k}
	seed := make([]float64, g.M)
	for i := range seed {
		seed[i] = 0.01 * math.Sin(7*float64(i))
	}
	// The final row's forward differences are the selected gap field
	// (a central difference would read the zigzag state as zero).
	final := make([]float64, g.M)
	if err := run(&front, seed, 400, 3, sim.SinkFunc(func(_ float64, th []float64) {
		copy(final, th)
	})); err != nil {
		log.Fatal(err)
	}
	var mean float64
	for i := 0; i+1 < len(final); i++ {
		mean += math.Abs(final[i+1] - final[i])
	}
	mean /= float64(len(final) - 1)
	fmt.Printf("desync field (D = %.2f): selected |gap| = %.4f (stable zero 2σ/3 = %.4f)\n",
		front.Diffusivity(), mean, desync.StableZero())
	fmt.Println("\nThe continuum limit reproduces both regimes: D > 0 diffuses idle")
	fmt.Println("waves away, D < 0 is the desynchronization instability saturated at")
	fmt.Println("the potential's stable zero — the co-design handle §6 asks for.")
}

// run streams the field's rows from theta0 over [0, tEnd] into sink.
func run(f *continuum.Field, theta0 []float64, tEnd float64, nSamples int, sink sim.Sink) error {
	sys, err := f.System(theta0)
	if err != nil {
		return err
	}
	_, err = sim.RunStream(sys, tEnd, nSamples, sink)
	return err
}
