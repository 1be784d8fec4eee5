// Wavefront: reproduce the computational-wavefront formation of
// memory-bound programs (paper §5.2.2) twice — once in the oscillator
// model with the desynchronizing potential, once in the MPI cluster
// simulator running STREAM on a saturated Meggie socket — and compare the
// two broken-symmetry states.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/pom"
)

func main() {
	log.SetFlags(0)

	const n = 20
	const sigma = 1.5

	// --- Oscillator model side -----------------------------------------
	cfg := pom.Bottlenecked(n, sigma)
	model, err := pom.NewModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The summary averages gaps and spread over the last 10% of the run;
	// the lock test takes the secant over the last 20%.
	lock := &sim.LockAccumulator{FinalFraction: 0.2}
	sum, err := sim.RunSummaryTo(model, 400, 801, 0, 0.1, lock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: settled |adjacent gap| = %.4f rad (theory 2σ/3 = %.4f)\n",
		sum.MeanAbsGap, 2*sigma/3)
	fmt.Printf("model: frequency locked = %v, asymptotic spread = %.2f rad\n",
		lock.Locked(1e-2), sum.AsymptoticSpread)

	// --- MPI trace side -------------------------------------------------
	tp, err := pom.NextNeighbor(n, false)
	if err != nil {
		log.Fatal(err)
	}
	mpi, err := pom.SimulateMPI(pom.Meggie(2), tp, pom.STREAM(), 300, 5, 50, 10)
	if err != nil {
		log.Fatal(err)
	}
	tr := mpi.Trace
	dm, err := tr.MeasureDesync(mpi.Makespan*0.75, mpi.Makespan*0.97, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMPI: residual wavefront spread = %.2f iterations, adjacent skew = %.3f\n",
		dm.Spread, dm.MeanAbsAdjacent)
	fmt.Printf("MPI: socket bandwidth pinned at %.1f GB/s (Meggie limit 53)\n",
		mpi.AggregateBandwidth(0)/1e9)
	fmt.Println("\nBoth substrates settle in a stable desynchronized state after the")
	fmt.Println("idle wave decays — the computational wavefront of Fig. 2(b).")
}
