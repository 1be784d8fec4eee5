package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/topology"
)

// E9Result gives the trace-side counterpart of the paper's §2.2.2
// argument that all-to-all coupling "acts like a synchronizing barrier in
// each time step": a bulk-synchronous program that ends every iteration
// in an MPI_Allreduce delivers an injected delay to every rank within one
// iteration, whereas the same program with point-to-point neighbor
// exchange carries it as a traveling wave.
type E9Result struct {
	// P2PArrivalSpreadIters is max−min idle-wave arrival across ranks, in
	// iterations, for the ±1 point-to-point program.
	P2PArrivalSpreadIters float64
	// CollectiveArrivalSpreadIters is the same for the Allreduce program.
	CollectiveArrivalSpreadIters float64
	// P2PReached and CollectiveReached count ranks hit by the wave.
	P2PReached, CollectiveReached int
}

// CollectiveBarrier runs both program variants and measures the arrival
// spread of a one-off delay.
func CollectiveBarrier() (*E9Result, error) {
	const n = 32
	const iters = 200
	const delayIter = 40
	k := kernels.Pisolver()

	arrivalSpread := func(progs []cluster.Program) (spreadIters float64, reached int, err error) {
		engine, err := cluster.NewSim(cluster.Meggie((n+9)/10), progs, cluster.Options{
			Delays: []cluster.DelayInjection{{Rank: n / 2, Iter: delayIter, Extra: 10 * k.CoreSeconds}},
		})
		if err != nil {
			return 0, 0, err
		}
		out, err := engine.Run()
		if err != nil {
			return 0, 0, err
		}
		tr := out.Trace
		iterDur := tr.MeanIterationTime(0)
		tDelay := tr.IterEnds[n/2][delayIter-1]
		wm, _ := tr.MeasureIdleWave(n/2, tDelay, 0.5*iterDur, iterDur, false)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, a := range wm.Arrival {
			if i == n/2 || math.IsNaN(a) {
				continue
			}
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
			reached++
		}
		if reached < 3 {
			return 0, reached, fmt.Errorf("experiments: wave reached only %d ranks", reached)
		}
		return (hi - lo) / iterDur, reached, nil
	}

	// Point-to-point variant.
	tp, err := topology.NextNeighbor(n, false)
	if err != nil {
		return nil, err
	}
	p2p, err := cluster.BulkSynchronous(tp, k.Workload(), 1024, iters)
	if err != nil {
		return nil, err
	}
	res := &E9Result{}
	if res.P2PArrivalSpreadIters, res.P2PReached, err = arrivalSpread(p2p); err != nil {
		return nil, err
	}

	// Collective variant: compute + Allreduce each iteration.
	coll := make([]cluster.Program, n)
	for r := range coll {
		coll[r] = cluster.Program{
			Body: []cluster.Instr{
				cluster.Compute{Seconds: k.CoreSeconds, Bytes: k.Bytes},
				cluster.Allreduce{Bytes: 8},
			},
			Iters: iters,
		}
	}
	if res.CollectiveArrivalSpreadIters, res.CollectiveReached, err = arrivalSpread(coll); err != nil {
		return nil, err
	}
	return res, nil
}
