// Command pomsim integrates the physical oscillator model from command
// line flags or a scenario JSON — the role of the paper's MATLAB GUI. It
// prints the settled state, wave metrics, and an ASCII phase strip, and
// optionally writes the phase-timeline and circle-diagram SVGs.
//
// With -archive DIR the run streams its full trajectory into a new
// shard of the disk-backed archive at DIR (creating it if needed):
// every sample row plus the summary-metric vector, readable back with
// cmd/pomread or internal/archive. Archiving implies streaming mode, so
// it composes with -stream and excludes -svg. Shards are written in the
// POMARC2 format; -archive-codec picks the record codec (delta
// compression by default, raw for byte-for-byte POMARC1 payloads) and
// one directory may mix codecs and generations freely.
//
// With -sweep DIR the process instead joins a fault-tolerant
// distributed sweep as one lease-coordinated worker (internal/dsweep):
// the scenario is swept along -sweep-param over a -sweep-points grid,
// every point's trajectory lands in the shared archive at DIR, and any
// number of pomsim processes pointed at the same DIR divide the grid —
// a worker that dies mid-range is re-leased after -lease-ttl. Merge
// and verify the result with cmd/pomread.
//
// Examples:
//
//	pomsim -n 40 -potential tanh -delay-rank 5
//	pomsim -n 40 -potential desync -sigma 1.5 -offsets=-1,1 -svg out
//	pomsim -n 40 -potential desync -sigma 1.5 -archive runs/desync
//	pomsim -save-config fig2b.json -potential desync -sigma 1.5
//	pomsim -config fig2b.json
//	pomsim -potential desync -sweep runs/scan -sweep-points 64 -sweep-param sigma -sweep-from 0.5 -sweep-to 3
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/continuum"
	"repro/internal/core"
	"repro/internal/kuramoto"
	"repro/internal/potential"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pomsim: ")

	var (
		n         = flag.Int("n", 40, "number of oscillators (MPI processes)")
		potName   = flag.String("potential", "tanh", "interaction potential: tanh | desync | kuramoto")
		sigma     = flag.Float64("sigma", 1.5, "interaction horizon σ of the desync potential")
		offsets   = flag.String("offsets", "-1,1", "comma-separated communication stencil offsets")
		periodic  = flag.Bool("periodic", false, "wrap the stencil into a ring")
		tComp     = flag.Float64("tcomp", 0.8, "computation phase duration")
		tComm     = flag.Float64("tcomm", 0.2, "communication phase duration")
		coupling  = flag.Float64("coupling", 0, "coupling override v_p (0 = βκ/period)")
		rendez    = flag.Bool("rendezvous", false, "rendezvous protocol (β=2) instead of eager (β=1)")
		grouped   = flag.Bool("grouped-waitall", false, "κ = max|d| (grouped MPI_Waitall) instead of Σ|d|")
		delayRank = flag.Int("delay-rank", -1, "rank receiving a one-off delay (-1 = none)")
		delayAt   = flag.Float64("delay-at", 10, "delay start time")
		delayLen  = flag.Float64("delay-len", 2, "delay duration")
		jitter    = flag.Float64("jitter", 0, "Gaussian period noise σ (0 = silent)")
		commLag   = flag.Float64("comm-lag", 0, "constant interaction delay τ")
		tEnd      = flag.Float64("t", 150, "integration end time")
		samples   = flag.Int("samples", 601, "output samples")
		desyncIC  = flag.Bool("desync-init", false, "start in the developed wavefront state")
		seed      = flag.Uint64("seed", 1, "noise / perturbation seed")
		svgDir    = flag.String("svg", "", "directory to write SVG plots into (empty = none)")
		stream    = flag.Bool("stream", false, "stream samples through online accumulators instead of materializing the trajectory (constant memory; no phase strip / SVGs)")
		archDir   = flag.String("archive", "", "archive the run (all sample rows + summary metrics) into a new shard of this directory; implies -stream")
		archCodec = flag.String("archive-codec", "delta", "record codec for archived shards: delta (XOR-delta compressed) | raw (POMARC1 payload bits)")
		quiet     = flag.Bool("quiet", false, "suppress the ASCII phase strip")
		cfgPath   = flag.String("config", "", "load a scenario JSON (replaces the model flags)")
		savePath  = flag.String("save-config", "", "write the effective scenario JSON and exit")
		listFams  = flag.Bool("list-families", false, "list the registered scenario families and exit")

		sweepDir     = flag.String("sweep", "", "join a fault-tolerant distributed sweep archiving into this shared directory (this process becomes one lease-coordinated worker)")
		sweepPoints  = flag.Int("sweep-points", 0, "sweep grid size (required with -sweep)")
		sweepParam   = flag.String("sweep-param", "sigma", "swept parameter: sigma | seed")
		sweepFrom    = flag.Float64("sweep-from", 0.5, "first grid value (seed sweeps: a non-negative integer to count up from)")
		sweepTo      = flag.Float64("sweep-to", 3.0, "last grid value (sigma sweeps only)")
		rangeSize    = flag.Int("range-size", 0, "points per lease range (0 = default)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "lease expiry; a worker silent this long forfeits its range (0 = default)")
		rangeWorkers = flag.Int("range-workers", 0, "point goroutines per leased range (0 = 1)")
		workerID     = flag.String("worker-id", "", "unique worker name in lease files (empty = host-pid)")
		coordinate   = flag.Bool("coordinate", false, "with -sweep: publish/validate the sweep plan and exit without claiming work")
	)
	flag.Parse()

	codec, err := archive.ParseCodec(*archCodec)
	if err != nil {
		log.Fatal(err)
	}
	shardCodec = codec

	if *listFams {
		for _, f := range scenario.Families() {
			fmt.Println(f)
		}
		return
	}

	var spec *scenario.Spec
	if *cfgPath != "" {
		loaded, err := scenario.LoadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		spec = loaded
	} else {
		offs, err := parseOffsets(*offsets)
		if err != nil {
			log.Fatal(err)
		}
		spec = &scenario.Spec{
			Name:             "pomsim",
			N:                *n,
			TComp:            *tComp,
			TComm:            *tComm,
			Potential:        scenario.PotentialSpec{Kind: *potName, Sigma: *sigma},
			Offsets:          offs,
			Periodic:         *periodic,
			Rendezvous:       *rendez,
			GroupedWaitall:   *grouped,
			CouplingOverride: *coupling,
			CommLag:          *commLag,
			TEnd:             *tEnd,
			Samples:          *samples,
			PerturbSeed:      *seed,
		}
		if *potName == "tanh" || *potName == "kuramoto" {
			spec.Potential.Sigma = 0
		}
		if *delayRank >= 0 {
			spec.Delays = []scenario.DelaySpec{{
				Rank: *delayRank, Start: *delayAt, Duration: *delayLen,
			}}
		}
		if *jitter > 0 {
			spec.Jitter = &scenario.JitterSpec{Dist: "gaussian", Amp: *jitter, Seed: *seed}
		}
		switch {
		case *desyncIC:
			spec.Init = "desync"
		case *potName == "desync":
			spec.Init = "random"
			spec.PerturbAmp = 0.02
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Save(f); err != nil {
			_ = f.Close()
			log.Fatal(err)
		}
		// A buffered write error can surface at Close; "written" must
		// not be reported until the file is really closed clean.
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario written to %s\n", *savePath)
		return
	}

	// Distributed worker mode: sweep the scenario along one parameter
	// into a shared lease-coordinated archive (internal/dsweep). Works
	// for every family — each point builds through the unified runtime.
	if *sweepDir != "" {
		if *svgDir != "" {
			log.Fatal("-svg is incompatible with -sweep (archive runs stream)")
		}
		runDistributed(spec, sweepOpts{
			dir:          *sweepDir,
			points:       *sweepPoints,
			param:        *sweepParam,
			from:         *sweepFrom,
			to:           *sweepTo,
			rangeSize:    *rangeSize,
			ttl:          *leaseTTL,
			rangeWorkers: *rangeWorkers,
			workerID:     *workerID,
			coordinate:   *coordinate,
		})
		return
	}

	// Streaming runs (every non-POM family, and the POM with -stream or
	// -archive) go through the unified sim runtime: streamed
	// accumulators and optional archiving, the same stack for any model.
	pom := spec.Family == "" || spec.Family == "pom"
	if !pom || *stream || *archDir != "" {
		if *svgDir != "" {
			if !pom {
				log.Fatalf("-svg is POM-only; family %q runs in streaming mode", spec.Family)
			}
			log.Fatal("-svg needs the materialized trajectory; drop -stream/-archive")
		}
		reportFamily(spec, *archDir)
		return
	}

	sys, runEnd, runSamples, err := spec.BuildSystem()
	if err != nil {
		log.Fatal(err)
	}
	m := sys.(*core.Model)
	res, err := m.Run(runEnd, runSamples)
	if err != nil {
		log.Fatal(err)
	}
	report(spec, m, res, *svgDir, *quiet)
}

// shardCodec is the record codec of every shard this invocation
// writes, set once in main from -archive-codec.
var shardCodec archive.Codec

// openArchiveRecord opens a new shard of the archive at archDir and
// begins its single record with the given parameter vector, using the
// shard id as the point index so successive pomsim invocations
// accumulate in one directory. Any failure is fatal (CLI context).
func openArchiveRecord(archDir string, params []float64) (*archive.Writer, *archive.RecordWriter) {
	shard, err := archive.NextShard(archDir)
	if err != nil {
		log.Fatal(err)
	}
	aw, err := archive.CreateWith(archDir, shard, shardCodec)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := aw.Begin(uint64(shard), params)
	if err != nil {
		log.Fatal(err)
	}
	return aw, rec
}

// sealArchiveRecord finishes the record with the summary-metric vector
// (sim.Summary.Vector layout) and seals the shard.
func sealArchiveRecord(aw *archive.Writer, rec *archive.RecordWriter, metrics []float64, nSamples int) {
	if err := rec.Finish(metrics, nil); err != nil {
		log.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived %d sample rows to %s (point %d)\n", nSamples, aw.Path(), rec.Index())
}

// archiveParams is the params vector of an archived run: the resolved run
// controls [dim, t_end, samples] plus the family's physical parameters,
// so archived trajectories can be tied back to the configuration that
// produced them.
func archiveParams(spec *scenario.Spec, sys sim.System, tEnd float64, nSamples int) []float64 {
	params := []float64{float64(sys.Dim()), tEnd, float64(nSamples)}
	switch spec.Family {
	case "", "pom":
		params = append(params, spec.Potential.Sigma)
	case "kuramoto":
		k := spec.Kuramoto
		params = append(params, k.K, k.FreqMean, k.FreqStd, float64(k.Seed))
	case "continuum":
		c := spec.Continuum
		params = append(params, c.K, c.A, c.Potential.Sigma)
	case "torus2d":
		t := spec.Torus2D
		params = append(params, float64(t.NX), float64(t.NY), float64(t.CouplingRadius()), t.Potential.Sigma)
	case "linstab":
		l := spec.Linstab
		scanKind := 0.0 // 0 = gap scan, 1 = coupling scan
		if l.Scan == "coupling" {
			scanKind = 1
		}
		params = append(params, l.From, l.To, float64(l.ScanPoints()),
			scanKind, l.Coupling(), l.Gap, l.Potential.Sigma)
	case "cluster":
		c := spec.Cluster
		params = append(params, float64(c.N), float64(c.Iters), c.MessageBytes())
	}
	return params
}

// reportFamily runs a scenario in streaming mode through the unified
// runtime: the spec builds into a sim.System via the family registry, the
// sample rows stream through the shared accumulator set, and — with a
// non-empty archDir — into a new shard of the disk-backed archive. Only
// O(N) accumulator state is ever retained, and the printed metrics are
// bit-for-bit the ones derived from a materialized trajectory.
func reportFamily(spec *scenario.Spec, archDir string) {
	sys, tEnd, nSamples, err := spec.BuildSystem()
	if err != nil {
		log.Fatal(err)
	}
	pom := spec.Family == "" || spec.Family == "pom"

	// Per-family streaming sinks ride the same single pass: the wave
	// detectors, slip counter and front tracker see exactly the rows the
	// accumulators and the archive record see.
	extra, printFamily := familySinks(spec, sys)

	// Archiving is one more sink, so the rows on disk are exactly the rows
	// the accumulators saw. Each pomsim invocation gets its own shard (and
	// uses the shard id as the point index), so successive runs
	// accumulate in one directory.
	var aw *archive.Writer
	var rec *archive.RecordWriter
	if archDir != "" {
		aw, rec = openArchiveRecord(archDir, archiveParams(spec, sys, tEnd, nSamples))
		extra = append(extra, rec)
	}

	sum, err := sim.RunSummaryTo(sys, tEnd, nSamples, 0.1, 0.15, extra...)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		sealArchiveRecord(aw, rec, sum.Vector(), nSamples)
	}

	if pom {
		m := sys.(*core.Model)
		fmt.Printf("POM run (streaming): %s  N=%d potential=%s offsets=%v v_p=%.3g coupling=%.3g\n",
			spec.Name, spec.N, spec.Potential.Kind, spec.Offsets, m.Vp(), m.Coupling())
	} else {
		fmt.Printf("%s run (unified runtime, streaming): %s  dim=%d t_end=%g samples=%d\n",
			spec.Family, spec.Name, sys.Dim(), tEnd, nSamples)
	}
	fmt.Printf("solver: %s\n", sum.Stats)
	fmt.Printf("asymptotic spread: %.4f rad   max spread: %.4f rad\n",
		sum.AsymptoticSpread, sum.MaxSpread)
	if spec.Family == "cluster" {
		fmt.Printf("iteration skew (spread/2π): asymptotic %.3f   max %.3f iterations\n",
			sum.AsymptoticSpread/(2*math.Pi), sum.MaxSpread/(2*math.Pi))
	}
	if !pom {
		fmt.Printf("order parameter: final %.4f   min %.4f\n", sum.FinalOrder, sum.MinOrder)
	}
	switch {
	case sum.Resynced:
		fmt.Printf("resynchronized at t = %.2f\n", sum.ResyncTime)
	case pom:
		printBrokenSymmetry(spec, sum.MeanAbsGap)
	default:
		fmt.Println("no resynchronization (broken-symmetry or incoherent state)")
		fmt.Printf("mean |adjacent gap| = %.4f\n", sum.MeanAbsGap)
	}
	printFamily()
}

// printBrokenSymmetry reports a POM run that never resynchronized: the
// mean adjacent gap, next to the desync potential's stable zero.
func printBrokenSymmetry(spec *scenario.Spec, meanAbsGap float64) {
	fmt.Println("no resynchronization (broken-symmetry state)")
	fmt.Printf("mean |adjacent gap| = %.4f", meanAbsGap)
	if spec.Potential.Kind == "desync" {
		fmt.Printf(" (potential stable zero 2σ/3 = %.4f)",
			potential.NewDesync(spec.Potential.Sigma).StableZero())
	}
	fmt.Println()
}

// printWave reports an idle wave measured from its origin rank.
func printWave(wf core.WaveFront) {
	fmt.Printf("idle wave from rank %d: speed %.3f ranks/period (R²=%.2f, reached %d ranks)\n",
		wf.Origin, wf.SpeedRanksPerPeriod, wf.R2, wf.Reached)
}

// familySinks returns the family-specific streaming sinks of a built spec
// plus a closure printing their findings after the run: the POM idle-wave
// detectors, the Kuramoto slip counter, the continuum front tracker, and
// the linstab scan-endpoint summary. Families without a dedicated sink
// get a no-op. (Validation guarantees the section matching Family is the
// only one set.)
func familySinks(spec *scenario.Spec, sys sim.System) ([]sim.Sink, func()) {
	switch spec.Family {
	case "", "pom":
		waves := make([]*core.WaveDetector, len(spec.Delays))
		sinks := make([]sim.Sink, len(spec.Delays))
		for i, d := range spec.Delays {
			det, err := core.NewWaveDetector(sys.(*core.Model), d.Rank, d.Start, 0.15)
			if err != nil {
				log.Fatal(err)
			}
			waves[i], sinks[i] = det, det
		}
		return sinks, func() {
			for _, det := range waves {
				if wf, err := det.Finish(); err == nil {
					printWave(wf)
				}
			}
		}
	case "kuramoto":
		slips := &kuramoto.SlipCounter{}
		return []sim.Sink{slips}, func() {
			fmt.Printf("phase slips: %d   drifting oscillators: %d of %d\n",
				slips.Slips(), slips.Drifting(0.05), spec.Kuramoto.N)
		}
	case "continuum":
		c := spec.Continuum
		tracker := &continuum.FrontTracker{
			Grid: continuum.Grid{M: c.M, A: c.A, Periodic: c.Periodic},
		}
		return []sim.Sink{tracker}, func() {
			fr, err := tracker.Finish()
			if err != nil {
				fmt.Println("continuum front: not detected")
				return
			}
			fmt.Printf("continuum front: velocity %+.4f x/time (R²=%.2f, detected in %d samples)\n",
				fr.Velocity, fr.R2, fr.Detected)
		}
	case "linstab":
		var last []float64
		sink := sim.SinkFunc(func(_ float64, y []float64) {
			last = append(last[:0], y...)
		})
		return []sim.Sink{sink}, func() {
			if len(last) == 0 {
				return
			}
			if spec.Linstab.FullSpectrum {
				fmt.Printf("spectrum at scan end: λ_min %.4g … λ_max %.4g (%d eigenvalues)\n",
					last[0], last[len(last)-1], len(last))
				return
			}
			fmt.Printf("at scan end (u=%g): λ_max %.4g   unstable modes %d   zero modes %d\n",
				spec.Linstab.To, last[0],
				int(math.Round(last[1])), int(math.Round(last[2])))
		}
	}
	return nil, func() {}
}

// report prints the run summary and writes optional SVGs. The metrics
// replay the rows once through the sinks the streamed report uses.
func report(spec *scenario.Spec, m *core.Model, res *core.Result, svgDir string, quiet bool) {
	spread := &sim.SpreadAccumulator{FinalFraction: 0.15}
	lock := &sim.LockAccumulator{FinalFraction: 0.2}
	resync := &sim.ResyncDetector{Eps: 0.1}
	gaps := &sim.GapAccumulator{FinalFraction: 0.15}
	waves, printWaves := familySinks(spec, m)
	sim.Replay(sim.Tee(append([]sim.Sink{spread, lock, resync, gaps}, waves...)...), res.Ts, res.Theta)

	fmt.Printf("POM run: %s  N=%d potential=%s offsets=%v v_p=%.3g coupling=%.3g\n",
		spec.Name, spec.N, spec.Potential.Kind, spec.Offsets, m.Vp(), m.Coupling())
	fmt.Printf("solver: %s\n", res.Stats)
	fmt.Printf("asymptotic spread: %.4f rad   frequency-locked: %v\n",
		spread.Asymptotic(), lock.Locked(1e-2))
	if rt, err := resync.ResyncTime(); err == nil {
		fmt.Printf("resynchronized at t = %.2f\n", rt)
	} else {
		printBrokenSymmetry(spec, gaps.MeanAbsGap())
	}
	printWaves()

	if !quiet {
		fmt.Println("\nphase strip (rows: time, columns: ranks; digits = lag behind leader):")
		fmt.Print(viz.PhaseStrip(res.NormalizedPhases(), 30))
	}

	if svgDir != "" {
		if err := writeSVGs(svgDir, res, m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SVGs written to %s\n", svgDir)
	}
}

// parseOffsets parses "-1,1,-2" into a stencil offset list.
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

// writeSVGs renders the phase-timeline and final circle diagram.
func writeSVGs(dir string, res *core.Result, m *core.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	norm := res.NormalizedPhases()
	plot := viz.LinePlot{
		Title:  "Normalized phases θᵢ − ωt (lagger baseline)",
		XLabel: "time", YLabel: "phase [rad]",
	}
	stride := m.N() / 8
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < m.N(); i += stride {
		ys := make([]float64, len(res.Ts))
		for k := range res.Ts {
			ys[k] = norm[k][i]
		}
		plot.Series = append(plot.Series, viz.Series{
			Name: fmt.Sprintf("rank %d", i), Xs: res.Ts, Ys: ys,
		})
	}
	if err := os.WriteFile(filepath.Join(dir, "phases.svg"), []byte(plot.SVG()), 0o644); err != nil {
		return err
	}

	hm := viz.Heatmap{
		Title:  "Lag behind leader (white low, red high)",
		XLabel: "rank", YLabel: "time →",
		Data: norm,
	}
	if err := os.WriteFile(filepath.Join(dir, "lag_heatmap.svg"), []byte(hm.SVG()), 0o644); err != nil {
		return err
	}

	final := res.FinalPhases()
	freqs := res.FrequencyTimeline()
	var lastFreq []float64
	if len(freqs) > 0 {
		lastFreq = freqs[len(freqs)-1]
	}
	circ := viz.CircleDiagram{
		Title:  "Asymptotic phase configuration",
		Phases: final,
		Freqs:  lastFreq,
	}
	return os.WriteFile(filepath.Join(dir, "circle.svg"), []byte(circ.SVG()), 0o644)
}
