package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/dsweep"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The sweep-archive shape: the megasweep point (N=8 desync ring, t_end
// 40) at the workload's sample count, pushed through every sweep path
// with 2 workers.
const (
	sweepPoints    = 64
	sweepWorkers   = 2
	sweepRangeSize = 16 // dsweep lease granularity: 4 ranges, 4 sealed shards
	sweepWarmup    = 8  // points per path in a setup's warm-up round
)

// Sweep paths, in the order a round runs them.
const (
	pathReduce = iota
	pathArchive
	pathDsweep
	pathRead
	nPaths
)

var pathNames = [nPaths]string{"reduce", "archive", "dsweep", "read"}

var sweepEndToEnd = []metricDef{
	{"sweep_reduce_pts_s", "1/s"},
	{"sweep_archive_pts_s", "1/s"},
	{"sweep_dsweep_pts_s", "1/s"},
	{"archive_read_pts_s", "1/s"},
}

var sweepPerLayer = []metricDef{
	{"sweep.solve_us_per_pt", "us"},
	{"sim.sinks_us_per_pt", "us"},
	{"archive.encode_us_per_pt", "us"},
	{"archive.seal_ms_per_shard", "ms"},
	{"archive.bytes_per_pt", "B"},
	{"archive.decode_us_per_pt", "us"},
	{"dsweep.ranges", "count"},
	{"dsweep.merge_ms", "ms"},
	{"residual_ms.reduce", "ms"},
	{"residual_ms.archive", "ms"},
	{"residual_ms.dsweep", "ms"},
}

// sweepSpec is the scenario of one sweep point; params are
// [sigma, coupling, perturbation seed].
func sweepSpec(params []float64, samples int) *scenario.Spec {
	return &scenario.Spec{
		Name: "sweep-point", N: 8, TComp: 0.8, TComm: 0.2,
		Potential:        scenario.PotentialSpec{Kind: "desync", Sigma: params[0]},
		Offsets:          []int{-1, 1},
		Periodic:         true,
		CouplingOverride: params[1],
		Delays:           []scenario.DelaySpec{{Rank: 2, Start: 5, Duration: 1, Extra: 20}},
		Init:             "random", PerturbAmp: 0.02, PerturbSeed: uint64(params[2]),
		TEnd: 40, Samples: samples,
	}
}

// sweepParams draws the point set from the seed as a Latin hypercube
// over sigma in [0.6, 2.4) and coupling in [1, 4): each of the n strata
// of either axis holds one point. Point cost depends on the parameters,
// so stratifying keeps a round's total work nearly equal across seeds.
func sweepParams(seed uint64, n int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	perm := rng.Perm(n)
	out := make([][]float64, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		v := (float64(perm[i]) + rng.Float64()) / float64(n)
		out[i] = []float64{0.6 + 1.8*u, 1 + 3*v, float64(1 + rng.IntN(1<<20))}
	}
	return out
}

// solvePoint runs one sweep point: BuildSystem, then the summary stream
// with rec (when non-nil) teed in and sealed with the summary vector.
// Traced, the point records sweep.solve, sim.sinks and archive.encode
// spans.
func solvePoint(tr *Tracer, req int, spec *scenario.Spec, rec *archive.RecordWriter) (*sim.Summary, error) {
	if tr == nil {
		sys, tEnd, samples, err := spec.BuildSystem()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return sim.RunSummary(sys, tEnd, samples, 0.1, 0.15)
		}
		sum, err := sim.RunSummaryTo(sys, tEnd, samples, 0.1, 0.15, rec)
		if err != nil {
			return nil, err
		}
		return sum, rec.Finish(sum.Vector(), nil)
	}
	root := tr.Begin("sweep.point", 0, req)
	defer tr.End(root)
	sp := tr.Begin("sweep.solve", root, req)
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		tr.End(sp)
		return nil, err
	}
	var extra []sim.Sink
	var enc *timedSink
	if rec != nil {
		enc = &timedSink{sink: rec}
		extra = append(extra, enc)
	}
	sum, sinks, err := tracedSummary(tr, sp, req, sys, tEnd, samples, extra)
	tr.End(sp)
	if err != nil || rec == nil {
		return sum, err
	}
	tr.Add(enc.span("archive.encode", sinks, req))
	fin := &timedSink{}
	err = fin.call(func() error { return rec.Finish(sum.Vector(), nil) })
	tr.Add(fin.span("archive.encode", root, req))
	return sum, err
}

// sweepRun is one run's state.
type sweepRun struct {
	o      *options
	params [][]float64
}

func (s *sweepRun) gen(i int) []float64 { return s.params[i] }

// pointFunc returns the archive point function of one path; point i is
// traced under request id base+i.
func (s *sweepRun) pointFunc(tr *Tracer, base int) sweep.ArchivePointFunc {
	return func(_ context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		_, err := solvePoint(tr, base+i, sweepSpec(params, s.o.sweepSamples), rec)
		return err
	}
}

// roundResult is what one round measured.
type roundResult struct {
	round   int
	wall    [nPaths]int64
	ranges  int
	bytes   int64
	mergeNS int64
	sealNS  []int64
}

// round pushes the first n points through the four paths, checking
// every output, and removes its directories afterwards. Traced, it also
// times a merge and re-seals the read-back records to time seals.
func (s *sweepRun) round(ctx context.Context, k, n int, tr *Tracer, rep *report) (roundResult, error) {
	res := roundResult{round: k}
	dir := filepath.Join(s.o.work, fmt.Sprintf("round-%d", k))
	defer func() { _ = os.RemoveAll(dir) }() // scratch only
	archDir := filepath.Join(dir, "archive")
	fleetDir := filepath.Join(dir, "fleet")
	base := func(path int) int { return (k*3 + path) * sweepPoints }

	// RunReduce with the summary sinks.
	// The point parameter is its index, so the traced request id and
	// the reduced vector land at the right point.
	vecs := make([][]float64, n)
	t0 := nanotime()
	err := sweep.RunReduce(ctx, n, sweepWorkers, func(i int) int { return i },
		func(_ context.Context, i int) (*sim.Summary, error) {
			return solvePoint(tr, base(pathReduce)+i, sweepSpec(s.params[i], s.o.sweepSamples), nil)
		},
		func(i int, _ int, sum *sim.Summary) { vecs[i] = sum.Vector() })
	res.wall[pathReduce] = nanotime() - t0
	for i := 0; i < n; i++ {
		if err == nil && vecs[i] == nil {
			rep.op(fmt.Errorf("reduce: point %d has no summary", i))
			continue
		}
		rep.op(errorf(err, "reduce"))
	}

	// ArchiveRun, default (delta) codec.
	t0 = nanotime()
	_, aerr := sweep.ArchiveRun{Dir: archDir, Hi: n, Workers: sweepWorkers}.Run(ctx, s.gen, s.pointFunc(tr, base(pathArchive)))
	res.wall[pathArchive] = nanotime() - t0

	// Two dsweep workers sharing one fresh directory.
	var wg sync.WaitGroup
	var derr [2]error
	var dstats [2]dsweep.Stats
	t0 = nanotime()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := dsweep.Config{
				Dir: fleetDir, N: n, RangeSize: sweepRangeSize,
				TTL: 10 * time.Second, Poll: 2 * time.Millisecond,
				WorkerID: fmt.Sprintf("perfbench-%d", w),
			}
			dstats[w], derr[w] = dsweep.Run(ctx, cfg, s.gen, s.pointFunc(tr, base(pathDsweep)))
		}()
	}
	wg.Wait()
	res.wall[pathDsweep] = nanotime() - t0
	res.ranges = dstats[0].Ranges

	if s.o.afterArchive != nil {
		if err := s.o.afterArchive(archDir); err != nil {
			return res, err
		}
	}
	size, err := dirBytes(archDir)
	if err != nil {
		return res, err
	}
	res.bytes = size

	// Read-back: OpenDir + Iter, each record checked against the reduce
	// path's summary of the same point.
	seen := make([]bool, n)
	t0 = nanotime()
	rerr := readArchive(archDir, func(rec *archive.Record) error {
		i := int(rec.Index)
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("archive: unexpected record %d", rec.Index)
		}
		if err := sameBits(rec.Metrics, vecs[i]); err != nil {
			return fmt.Errorf("archive: point %d metrics: %w", i, err)
		}
		seen[i] = true
		return nil
	})
	res.wall[pathRead] = nanotime() - t0
	rep.op(errorf(rerr, "read-back"))
	for i := 0; i < n; i++ {
		switch {
		case aerr != nil:
			rep.op(errorf(aerr, "archive run"))
		case !seen[i]:
			rep.op(fmt.Errorf("archive: point %d missing or unreadable", i))
		default:
			rep.op(nil)
		}
	}

	// The fleet's merged archive must equal the ArchiveRun archive.
	mergedDir := filepath.Join(dir, "merged")
	t0 = nanotime()
	_, ferr := dsweep.Merge(fleetDir, mergedDir, 0)
	res.mergeNS = nanotime() - t0
	if ferr == nil {
		ferr = dsweep.Equal(mergedDir, archDir)
	}
	for _, e := range derr {
		if ferr == nil {
			ferr = e
		}
	}
	for i := 0; i < n; i++ {
		rep.op(errorf(ferr, "dsweep"))
	}

	if tr != nil && rerr == nil {
		if res.sealNS, err = timeSeals(filepath.Join(dir, "seal"), archDir); err != nil {
			return res, err
		}
	}
	return res, nil
}

// readArchive opens dir and decodes every record through fn.
func readArchive(dir string, fn func(*archive.Record) error) error {
	a, err := archive.OpenDir(dir)
	if err != nil {
		return err
	}
	err = a.Iter(fn)
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	return err
}

// timeSeals re-encodes the records of src into sweepWorkers shards in
// dir, as ArchiveRun's workers would hold them, and returns each shard's
// Writer.Close time.
func timeSeals(dir, src string) ([]int64, error) {
	var recs []*archive.Record
	if err := readArchive(src, func(rec *archive.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	var out []int64
	per := (len(recs) + sweepWorkers - 1) / sweepWorkers
	for w := 0; w*per < len(recs); w++ {
		aw, err := archive.CreateWith(dir, w, archive.CodecDefault)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs[w*per : min((w+1)*per, len(recs))] {
			if err := aw.Append(rec); err != nil {
				_ = aw.Abort() // the Append error is the one to report
				return nil, err
			}
		}
		t0 := nanotime()
		err = aw.Close()
		out = append(out, nanotime()-t0)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameBits reports whether two float vectors are bitwise equal.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("vector length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// dirBytes returns the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// sweepPhase runs one round of all four paths per step.
type sweepPhase struct {
	s     *sweepRun
	round int

	plain, traced [nPaths][]float64 // per-round wall ms
	results       []roundResult     // traced rounds
}

func newSweepPhase(o *options) *sweepPhase { return &sweepPhase{s: &sweepRun{o: o}} }

// setup draws the points, builds every spec and runs one warm-up round
// through all paths.
func (p *sweepPhase) setup(ctx context.Context, rep *report) error {
	s := p.s
	s.params = sweepParams(s.o.seed, sweepPoints)
	for _, params := range s.params {
		if _, _, _, err := sweepSpec(params, s.o.sweepSamples).BuildSystem(); err != nil {
			return err
		}
	}
	_, err := s.round(ctx, p.round, sweepWarmup, nil, rep)
	p.round++
	return err
}

func (p *sweepPhase) step(ctx context.Context, tr *Tracer, rep *report) error {
	res, err := p.s.round(ctx, p.round, sweepPoints, tr, rep)
	p.round++
	if err != nil {
		return err
	}
	for k := 0; k < nPaths; k++ {
		if tr == nil {
			p.plain[k] = append(p.plain[k], ms(res.wall[k]))
		} else {
			p.traced[k] = append(p.traced[k], ms(res.wall[k]))
		}
	}
	if tr != nil {
		p.results = append(p.results, res)
	}
	return nil
}

func (p *sweepPhase) finish(rep *report, tr *Tracer) float64 {
	plain, traced := p.plain, p.traced
	ptsPerSec := func(wallMS []float64) float64 { return sweepPoints / (median(wallMS) / 1e3) }
	rep.set("sweep_reduce_pts_s", ptsPerSec(plain[pathReduce]))
	rep.set("sweep_archive_pts_s", ptsPerSec(plain[pathArchive]))
	rep.set("sweep_dsweep_pts_s", ptsPerSec(plain[pathDsweep]))
	rep.set("archive_read_pts_s", ptsPerSec(plain[pathRead]))
	for k := 0; k < nPaths; k++ {
		xs := plain[k]
		rep.notef("sweep-archive %s: %d untraced %d-point rounds, wall p10 %.3f p50 %.3f p90 %.3f ms",
			pathNames[k], len(xs), sweepPoints, quantile(xs, 0.1), median(xs), quantile(xs, 0.9))
	}
	if tr == nil {
		return 0
	}

	self := tr.SelfTimes()
	var solve, sinks, encode, seal, decode, merge, bytes []float64
	var layers [pathRead][3][]float64 // per path: solve, sinks, encode worker-ms per round
	for _, res := range p.results {
		k := res.round
		for path := pathReduce; path < pathRead; path++ {
			var sv, sk, en float64
			for i := 0; i < sweepPoints; i++ {
				m := self[(k*3+path)*sweepPoints+i]
				sv += ms(m["sweep.solve"])
				sk += ms(m["sim.sinks"])
				en += ms(m["archive.encode"])
				solve = append(solve, float64(m["sweep.solve"])/1e3)
				sinks = append(sinks, float64(m["sim.sinks"])/1e3)
				if path != pathReduce {
					encode = append(encode, float64(m["archive.encode"])/1e3)
				}
			}
			layers[path][0] = append(layers[path][0], sv)
			layers[path][1] = append(layers[path][1], sk)
			layers[path][2] = append(layers[path][2], en)
		}
		for _, ns := range res.sealNS {
			seal = append(seal, ms(ns))
		}
		decode = append(decode, float64(res.wall[pathRead])/1e3/sweepPoints)
		merge = append(merge, ms(res.mergeNS))
		bytes = append(bytes, float64(res.bytes)/sweepPoints)
	}
	rep.set("sweep.solve_us_per_pt", median(solve))
	rep.set("sim.sinks_us_per_pt", median(sinks))
	rep.set("archive.encode_us_per_pt", median(encode))
	rep.set("archive.seal_ms_per_shard", median(seal))
	rep.set("archive.bytes_per_pt", median(bytes))
	rep.set("archive.decode_us_per_pt", median(decode))
	rep.set("dsweep.ranges", float64(p.results[0].ranges))
	rep.set("dsweep.merge_ms", median(merge))
	var tracedSum, plainSum float64
	for path := pathReduce; path < nPaths; path++ {
		tracedSum += median(traced[path])
		plainSum += median(plain[path])
		if path == pathRead {
			continue
		}
		// The residual is the worker time of the median round that the
		// layers' medians leave unexplained.
		sv, sk, en := median(layers[path][0]), median(layers[path][1]), median(layers[path][2])
		residual := median(traced[path])*sweepWorkers - sv - sk - en
		rep.set("residual_ms."+pathNames[path], residual)
		rep.notef("sweep-archive %s: %d workers x %.3f ms = solve %.3f + sinks %.3f + encode %.3f + residual %.3f worker-ms per %d-point round (untraced wall %.3f ms)",
			pathNames[path], sweepWorkers, median(traced[path]), sv, sk, en, residual, sweepPoints, median(plain[path]))
	}
	rep.notef("sweep-archive read: %.3f ms = decode %.3f us/pt x %d points (untraced %.3f ms)",
		median(traced[pathRead]), median(decode), sweepPoints, median(plain[pathRead]))
	return tracedSum / plainSum
}
