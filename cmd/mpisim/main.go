// Command mpisim runs the discrete-event MPI cluster simulator for a
// bulk-synchronous kernel, injects an optional one-off delay, and reports
// the trace metrics the paper reads from ITAC: idle-wave speed,
// desynchronization skew, per-rank communication fractions, and socket
// bandwidth. It can write an ITAC-style Gantt SVG.
//
// Examples:
//
//	mpisim -kernel pisolver -n 40 -delay-rank 5
//	mpisim -kernel stream -n 20 -offsets=-1,1 -svg out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpisim: ")

	var (
		kernelName = flag.String("kernel", "pisolver", "kernel: pisolver | stream | schoenauer")
		n          = flag.Int("n", 40, "number of MPI ranks")
		offsets    = flag.String("offsets", "-1,1", "communication stencil offsets")
		periodic   = flag.Bool("periodic", false, "ring instead of open chain")
		iters      = flag.Int("iters", 400, "bulk-synchronous iterations")
		msgBytes   = flag.Float64("msg", 1024, "message size in bytes (≤16384 eager)")
		machine    = flag.String("machine", "meggie", "machine model: meggie | supermuc-ng")
		delayRank  = flag.Int("delay-rank", -1, "rank receiving a one-off delay (-1 = none)")
		delayIter  = flag.Int("delay-iter", 50, "zero-based iteration of the delay, below -iters")
		delayIters = flag.Float64("delay-len", 10, "delay length in iteration equivalents")
		noiseAmp   = flag.Float64("noise", 0, "deterministic per-iteration compute noise amplitude (fraction of sweep)")
		svgDir     = flag.String("svg", "", "directory for the Gantt SVG (empty = none)")
		csvPath    = flag.String("trace-csv", "", "write the full trace as CSV (empty = none)")
	)
	flag.Parse()

	k, err := kernels.ByName(*kernelName)
	if err != nil {
		log.Fatal(err)
	}
	offs, err := parseOffsets(*offsets)
	if err != nil {
		log.Fatal(err)
	}
	tp, err := topology.Stencil(*n, offs, *periodic)
	if err != nil {
		log.Fatal(err)
	}

	var mc cluster.MachineConfig
	switch *machine {
	case "meggie":
		mc = cluster.Meggie((*n + 9) / 10)
	case "supermuc-ng":
		mc = cluster.SuperMUCNG((*n + 23) / 24)
	default:
		log.Fatalf("unknown machine %q", *machine)
	}

	progs, err := cluster.BulkSynchronous(tp, k.Workload(), *msgBytes, *iters)
	if err != nil {
		log.Fatal(err)
	}
	opts := cluster.Options{}
	if *delayRank >= 0 {
		opts.Delays = []cluster.DelayInjection{{
			Rank: *delayRank, Iter: *delayIter, Extra: *delayIters * k.CoreSeconds,
		}}
	}
	if *noiseAmp > 0 {
		amp := *noiseAmp * k.CoreSeconds
		opts.ComputeNoise = func(rank, iter int) float64 {
			// Simple deterministic hash noise in [0, amp).
			h := uint64(rank+1)*0x9e3779b97f4a7c15 ^ uint64(iter+1)*0xbf58476d1ce4e5b9
			h ^= h >> 31
			return amp * float64(h>>11) / (1 << 53)
		}
	}

	engine, err := cluster.NewSim(mc, progs, opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run()
	if err != nil {
		log.Fatal(err)
	}
	tr := res.Trace

	fmt.Printf("mpisim: %s on %s, N=%d stencil=%v iters=%d\n",
		k.Name, mc.Name, *n, offs, *iters)
	fmt.Printf("makespan %.4f s, %d events, mean iteration %.6f s\n",
		res.Makespan, res.Events, tr.MeanIterationTime(0))
	for s := range res.SocketBytes {
		if res.SocketBytes[s] > 0 {
			fmt.Printf("socket %d bandwidth: %.2f GB/s\n", s, res.AggregateBandwidth(s)/1e9)
		}
	}

	if *delayRank >= 0 {
		iterDur := tr.MeanIterationTime(0)
		// The delay hits when the delayed rank finishes the iteration
		// before it, or at the start of the run for iteration 0.
		tDelay := 0.0
		if *delayIter > 0 {
			tDelay = tr.IterEnds[*delayRank][*delayIter-1]
		}
		if wm, err := tr.MeasureIdleWave(*delayRank, tDelay, 0.5*iterDur, iterDur, *periodic); err == nil {
			fmt.Printf("idle wave: %.3f ranks/iter (R²=%.2f, reached %d)\n",
				wm.SpeedRanksPerIter, wm.R2, wm.Reached)
		} else {
			fmt.Printf("idle wave: %v\n", err)
		}
		if dm, err := tr.MeasureDesync(res.Makespan*0.75, res.Makespan*0.97, 40); err == nil {
			fmt.Printf("asymptotic desync: spread %.3f iterations, adjacent skew %.4f\n",
				dm.Spread, dm.MeanAbsAdjacent)
		}
	}

	fracs := tr.CommFractions()
	var meanFrac float64
	for _, f := range fracs {
		meanFrac += f
	}
	fmt.Printf("mean communication fraction: %.3f\n", meanFrac/float64(len(fracs)))

	if *svgDir != "" {
		if err := writeGantt(*svgDir, tr, res.Makespan, k.Name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Gantt SVG written to %s\n", *svgDir)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteCSV(f); err != nil {
			_ = f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace CSV written to %s\n", *csvPath)
	}
}

func parseOffsets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad offset %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeGantt(dir string, tr *trace.Trace, makespan float64, title string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := viz.Gantt{
		Title: fmt.Sprintf("%s trace (white compute, red communication)", title),
		Rows:  tr.N(),
		T0:    0,
		T1:    makespan,
	}
	for r := 0; r < tr.N(); r++ {
		for _, sp := range tr.Spans[r] {
			g.Spans = append(g.Spans, viz.GanttSpan{
				Row: r, Start: sp.Start, End: sp.End,
				Comm: sp.Kind == trace.SpanComm,
			})
		}
	}
	return os.WriteFile(filepath.Join(dir, "trace.svg"), []byte(g.SVG()), 0o644)
}
