package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve-mix shape: POM desync rings of N=40 over t_end 60 at the
// workload's sample count (601 samples make a ~456 KB NDJSON body),
// served by 2 workers to a closed loop of one client on one keep-alive
// connection. One client leaves the second core to the server, so a
// request's latency is its own work, not a race with another client's
// request for 2 cores.
const (
	serveHot     = 4 // hot-set size: specs warmed during setup
	serveClients = 1
	serveWorkers = 2
	// serveEpoch is the load time of one server lifetime. The server
	// keeps every executed job's body in memory, so the run restarts it
	// on a fresh cache directory after each epoch.
	serveEpoch = time.Second
	// failedMS is the latency recorded for a failed request, so that a
	// failure counts against every latency percentile.
	failedMS = 1e6
)

var serveEndToEnd = []metricDef{
	{"serve_miss_ms.p50", "ms"},
	{"serve_miss_ms.p90", "ms"},
	{"serve_hit_ms.p50", "ms"},
	{"serve_hit_ms.p90", "ms"},
}

// servePerLayer holds serve_miss_ttfr_ms.p50 although it is end to end:
// it is well under a millisecond of cross-core wake-ups, which the host's
// speed swings move by 60%, more than any bound allows.
var servePerLayer = []metricDef{
	{"serve_miss_ttfr_ms.p50", "ms"},
	{"scenario.load_us", "us"},
	{"scenario.hash_us", "us"},
	{"serve.submit_us.hit", "us"},
	{"serve.cache_read_us", "us"},
	{"serve.render_ns_per_row", "ns"},
	{"serve.solve_ms.miss", "ms"},
	{"archive.encode_us.miss", "us"},
	{"archive.seal_ms.miss", "ms"},
	{"archive.keydir_put_us", "us"},
	{"serve.body_bytes", "B"},
	{"serve.hits", "count"},
	{"serve.executions", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"residual_ms.hit", "ms"},
	{"residual_ms.miss", "ms"},
}

// wallClock is the serve.Clock of the benchmark's server.
type wallClock struct{}

// Now implements serve.Clock.
func (wallClock) Now() time.Time {
	//pomvet:allow wallclock the served runtime's admission and snapshot clock, as in cmd/pomsimd
	return time.Now()
}

// serveSpec is the k-th spec of a seed: the hot set uses k >= 1<<40,
// misses count up from 0. Distinct k give distinct cache keys.
func serveSpec(seed, k uint64, samples int) *scenario.Spec {
	rng := rand.New(rand.NewPCG(seed, k))
	return &scenario.Spec{
		Name: "serve-mix", N: 40, TComp: 0.8, TComm: 0.2,
		Potential: scenario.PotentialSpec{Kind: "desync", Sigma: 0.8 + 1.2*rng.Float64()},
		Offsets:   []int{-1, 1},
		Periodic:  true,
		Delays:    []scenario.DelaySpec{{Rank: rng.IntN(40), Start: 10, Duration: 2}},
		Init:      "random", PerturbAmp: 0.02, PerturbSeed: k + 1,
		TEnd: 60, Samples: samples,
	}
}

// prepared is a spec ready to send.
type prepared struct {
	k    uint64
	body []byte   // the request body
	ref  [32]byte // reference body digest (hot set only, until verified)
}

func prepare(o *options, k uint64) (*prepared, error) {
	body, err := json.Marshal(serveSpec(o.seed, k, o.serveSamples))
	if err != nil {
		return nil, err
	}
	return &prepared{k: k, body: body}, nil
}

// referenceDigest streams the spec directly through sim.RunStream and
// serve.AppendRow and returns the SHA-256 of the rendered body.
func referenceDigest(o *options, k uint64) ([32]byte, error) {
	var out [32]byte
	sys, tEnd, samples, err := serveSpec(o.seed, k, o.serveSamples).BuildSystem()
	if err != nil {
		return out, err
	}
	h := sha256.New()
	var row []byte
	_, err = sim.RunStream(sys, tEnd, samples, sim.SinkFunc(func(t float64, y []float64) {
		row = serve.AppendRow(row[:0], t, y)
		h.Write(row)
	}))
	copy(out[:], h.Sum(nil))
	return out, err
}

// request is one measured HTTP request.
type request struct {
	id            int // span request id in traced epochs
	p             *prepared
	hit           bool // sent as a hot-set (expected cache-hit) request
	start, end    int64
	ttfr          int64
	digest        [32]byte
	size          int
	cache, status string
	err           error
}

// latencyMS is the request's full-body time, or failedMS.
func (r *request) latencyMS() float64 {
	if r.err != nil {
		return failedMS
	}
	return ms(r.end - r.start)
}

// check verifies a request against its reference digest.
func (r *request) check() error {
	want := "miss"
	if r.hit {
		want = "hit"
	}
	switch {
	case r.err != nil:
		return r.err
	case r.cache != want:
		return fmt.Errorf("spec %d: served as %q, want %q", r.p.k, r.cache, want)
	case r.status != "done":
		return fmt.Errorf("spec %d: trailer status %q", r.p.k, r.status)
	case r.digest != r.p.ref:
		return fmt.Errorf("spec %d (%s): body differs from the direct run", r.p.k, r.cache)
	}
	return nil
}

// epochServer is one server lifetime behind a loopback listener.
type epochServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	dir    string
	// replay is a second server on the same cache, opened after warm-up,
	// on which traced runs repeat a hit's Submit and CachedRecord.
	replay *serve.Server
}

func startServer(o *options, dir string) (*epochServer, error) {
	srv, err := serve.New(serve.Config{
		Workers: serveWorkers, Clock: wallClock{},
		CacheDir: filepath.Join(dir, "cache"), SnapshotTTL: time.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	h := srv.Handler()
	if o.wrapHandler != nil {
		h = o.wrapHandler(h)
	}
	e := &epochServer{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true,
		}},
		url: "http://" + ln.Addr().String() + "/v1/run",
		dir: dir,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop shuts the listener, both servers and the client down and waits
// for the serving goroutine.
func (e *epochServer) stop(ctx context.Context) error {
	e.client.CloseIdleConnections()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if e.replay != nil {
		if rerr := e.replay.Close(); err == nil {
			err = rerr
		}
	}
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// do sends one spec and reads the full body, hashing it as it arrives.
func (e *epochServer) do(ctx context.Context, p *prepared, hit bool, buf []byte) *request {
	r := &request{p: p, hit: hit, start: nanotime()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(p.body))
	if err != nil {
		r.err = err
		return r
	}
	resp, err := e.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer func() { _ = resp.Body.Close() }() // fully read below, or abandoned on error
	h := sha256.New()
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if r.ttfr == 0 && bytes.IndexByte(buf[:n], '\n') >= 0 {
				r.ttfr = nanotime() - r.start
			}
			h.Write(buf[:n])
			r.size += n
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			r.err = rerr
			return r
		}
	}
	r.end = nanotime()
	copy(r.digest[:], h.Sum(nil))
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("spec %d: HTTP %d", p.k, resp.StatusCode)
	}
	r.cache = resp.Header.Get("X-Pomsimd-Cache")
	r.status = resp.Trailer.Get("X-Pomsimd-Status")
	return r
}

// replayer repeats a request's layer calls inside spans, on one client
// goroutine: a scratch cache shard and key index stand in for the
// server's publish.
type replayer struct {
	tr   *Tracer
	srv  *serve.Server
	dir  string
	keys *archive.KeyDir
	next int
	row  []byte
}

// replay records the request's root span (the HTTP time) and, under it,
// the layer calls the server made for it. The root's self time is the
// HTTP time no layer span covers.
func (rp *replayer) replay(r *request) error {
	id := r.id
	root := rp.tr.Add(Span{Name: "serve.request", Req: id, Start: r.start, End: r.end, Busy: r.end - r.start, Calls: 1})
	sp := rp.tr.Begin("scenario.load", root, id)
	spec, err := scenario.Load(bytes.NewReader(r.p.body))
	rp.tr.End(sp)
	if err != nil {
		return err
	}
	if r.hit {
		sp = rp.tr.Begin("serve.submit", root, id)
		j, kind, err := rp.srv.Submit(spec)
		rp.tr.End(sp)
		if err != nil {
			return err
		}
		if kind != serve.SubmitHit {
			return fmt.Errorf("replay: spec %d submitted as %s", r.p.k, kind)
		}
		sp = rp.tr.Begin("serve.cache_read", root, id)
		rec, ok, err := rp.srv.CachedRecord(j.Hash)
		rp.tr.End(sp)
		if err != nil || !ok {
			return fmt.Errorf("replay: cached record of spec %d: ok=%v err=%v", r.p.k, ok, err)
		}
		render := &timedSink{}
		_ = render.call(func() error { serve.RenderRecord(rec); return nil })
		s := render.span("serve.render", root, id)
		s.Calls = rec.NSamples()
		rp.tr.Add(s)
		return nil
	}

	sp = rp.tr.Begin("scenario.hash", root, id)
	hash, err := scenario.CanonicalHash(spec)
	rp.tr.End(sp)
	if err != nil {
		return err
	}
	solve := rp.tr.Begin("serve.solve", root, id)
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		rp.tr.End(solve)
		return err
	}
	w, err := archive.CreateAnyWith(rp.dir, rp.next, archive.CodecDefault)
	if err != nil {
		rp.tr.End(solve)
		return err
	}
	rp.next = w.Shard() + 1
	rec, err := w.Begin(0, nil)
	if err != nil {
		rp.tr.End(solve)
		_ = w.Abort() // the Begin error is the one to report
		return err
	}
	render := &timedSink{sink: sim.SinkFunc(func(t float64, y []float64) { rp.row = serve.AppendRow(rp.row[:0], t, y) })}
	enc := &timedSink{sink: rec}
	_, err = sim.RunStream(sys, tEnd, samples, sim.Tee(render, enc))
	rp.tr.End(solve)
	rp.tr.Add(render.span("serve.render", solve, id))
	rp.tr.Add(enc.span("archive.encode", solve, id))
	if err == nil {
		fin := &timedSink{}
		err = fin.call(func() error { return rec.Finish(nil, nil) })
		rp.tr.Add(fin.span("archive.encode", root, id))
	}
	if err != nil {
		_ = w.Abort() // the run or Finish error is the one to report
		return err
	}
	sp = rp.tr.Begin("archive.seal", root, id)
	err = w.Close()
	rp.tr.End(sp)
	if err != nil {
		return err
	}
	sp = rp.tr.Begin("archive.keydir_put", root, id)
	err = rp.keys.Put(hash, uint64(w.Shard()))
	rp.tr.End(sp)
	return err
}

// servePhase runs one server lifetime (an epoch) per step. Each epoch
// starts a server on a fresh cache directory, warms the hot set, runs
// the closed loop, then checks every body.
type servePhase struct {
	o      *options
	hot    []*prepared
	misses atomic.Uint64
	ep     int
	window time.Duration

	plain, traced [][]*request // per epoch
	snap          serve.Snapshot
}

func newServePhase(o *options) *servePhase {
	return &servePhase{o: o, window: min(serveEpoch, o.seconds/4)}
}

// setup prepares the hot set with its reference digests, then starts a
// server, warms the hot set and stops it: the set-up of every epoch.
func (p *servePhase) setup(ctx context.Context, rep *report) error {
	p.hot = make([]*prepared, serveHot)
	for i := range p.hot {
		h, err := prepare(p.o, 1<<40+uint64(i))
		if err != nil {
			return err
		}
		if h.ref, err = referenceDigest(p.o, h.k); err != nil {
			return err
		}
		p.hot[i] = h
	}
	dir := filepath.Join(p.o.work, fmt.Sprintf("epoch-%d", p.ep))
	p.ep++
	defer func() { _ = os.RemoveAll(dir) }() // scratch only
	e, err := p.startWarm(ctx, dir, rep)
	if err != nil {
		return err
	}
	return e.stop(ctx)
}

// startWarm starts a server in dir and sends it the hot set, checked.
func (p *servePhase) startWarm(ctx context.Context, dir string, rep *report) (*epochServer, error) {
	e, err := startServer(p.o, dir)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 64<<10)
	for _, h := range p.hot {
		rep.op(e.do(ctx, h, false, buf).check())
	}
	return e, nil
}

func (p *servePhase) step(ctx context.Context, tr *Tracer, rep *report) error {
	err := p.runEpoch(ctx, tr, rep)
	p.ep++
	// The epoch's bodies are garbage now; collect them here rather than
	// inside another phase's timing.
	runtime.GC()
	return err
}

func (p *servePhase) finish(rep *report, tr *Tracer) float64 {
	// A latency quantile is taken per epoch and reported as the median
	// over epochs, so a host stall in one epoch moves one value of many.
	lat := func(epochs [][]*request, hit bool, q float64, ttfr bool) float64 {
		var per []float64
		for _, reqs := range epochs {
			var xs []float64
			for _, r := range reqs {
				switch {
				case r.hit != hit:
				case ttfr && r.err == nil:
					xs = append(xs, ms(r.ttfr))
				default:
					xs = append(xs, r.latencyMS())
				}
			}
			if len(xs) > 0 {
				per = append(per, quantile(xs, q))
			}
		}
		return median(per)
	}
	rep.set("serve_miss_ttfr_ms.p50", lat(p.plain, false, 0.5, true))
	rep.set("serve_miss_ms.p50", lat(p.plain, false, 0.5, false))
	rep.set("serve_miss_ms.p90", lat(p.plain, false, 0.9, false))
	rep.set("serve_hit_ms.p50", lat(p.plain, true, 0.5, false))
	rep.set("serve_hit_ms.p90", lat(p.plain, true, 0.9, false))
	var nHit, nMiss int
	for _, r := range slices.Concat(p.plain...) {
		if r.hit {
			nHit++
		} else {
			nMiss++
		}
	}
	rep.notef("serve-mix: %d hit and %d miss requests measured untraced over %d epochs", nHit, nMiss, p.ep)
	if tr == nil {
		return 0
	}

	self, calls := tr.SelfTimes(), tr.Calls()
	var load, hash, submit, cacheRead, render, solve, encode, seal, put, body []float64
	var renderHit, renderMiss []float64
	for _, r := range slices.Concat(p.traced...) {
		id := r.id
		s := self[id]
		load = append(load, float64(s["scenario.load"])/1e3)
		render = append(render, float64(s["serve.render"])/float64(calls[id]["serve.render"]))
		body = append(body, float64(r.size))
		if r.hit {
			submit = append(submit, float64(s["serve.submit"])/1e3)
			cacheRead = append(cacheRead, float64(s["serve.cache_read"])/1e3)
			renderHit = append(renderHit, ms(s["serve.render"]))
			continue
		}
		hash = append(hash, float64(s["scenario.hash"])/1e3)
		solve = append(solve, ms(s["serve.solve"]))
		encode = append(encode, float64(s["archive.encode"])/1e3)
		seal = append(seal, ms(s["archive.seal"]))
		put = append(put, float64(s["archive.keydir_put"])/1e3)
		renderMiss = append(renderMiss, ms(s["serve.render"]))
	}
	rep.set("scenario.load_us", median(load))
	rep.set("scenario.hash_us", median(hash))
	rep.set("serve.submit_us.hit", median(submit))
	rep.set("serve.cache_read_us", median(cacheRead))
	rep.set("serve.render_ns_per_row", median(render))
	rep.set("serve.solve_ms.miss", median(solve))
	rep.set("archive.encode_us.miss", median(encode))
	rep.set("archive.seal_ms.miss", median(seal))
	rep.set("archive.keydir_put_us", median(put))
	rep.set("serve.body_bytes", median(body))
	rep.set("serve.hits", float64(p.snap.CacheHits))
	rep.set("serve.executions", float64(p.snap.Executions))
	rep.set("serve.coalesced", float64(p.snap.Coalesced))
	rep.set("serve.rejected", float64(p.snap.Rejected))

	// Shares of the traced p50s: each layer at its median, the residual
	// being the HTTP time the layers' medians leave of the p50.
	missP50, hitP50 := lat(p.traced, false, 0.5, false), lat(p.traced, true, 0.5, false)
	parseMiss := (median(load) + median(hash)) / 1e3
	publish := (median(encode)+median(put))/1e3 + median(seal)
	missRes := missP50 - parseMiss - median(solve) - median(renderMiss) - publish
	parseHit := (median(load) + median(submit)) / 1e3
	hitRes := hitP50 - parseHit - median(cacheRead)/1e3 - median(renderHit)
	rep.set("residual_ms.hit", hitRes)
	rep.set("residual_ms.miss", missRes)
	pct := func(x, of float64) float64 { return 100 * x / of }
	rep.notef("serve-mix traced miss p50 %.3f ms: solve %.1f%%, render %.1f%%, durable publish (encode+seal+key) %.1f%%, load+hash %.1f%%, residual %.1f%%",
		missP50, pct(median(solve), missP50), pct(median(renderMiss), missP50), pct(publish, missP50), pct(parseMiss, missP50), pct(missRes, missP50))
	rep.notef("serve-mix traced hit p50 %.3f ms: cache read/decode %.1f%%, render %.1f%%, load+submit %.1f%%, residual %.1f%%",
		hitP50, pct(median(cacheRead)/1e3, hitP50), pct(median(renderHit), hitP50), pct(parseHit, hitP50), pct(hitRes, hitP50))
	plainP50 := lat(p.plain, false, 0.5, false) + lat(p.plain, true, 0.5, false)
	return (missP50 + hitP50) / plainP50
}

// runEpoch is one server lifetime: start and warm the hot set, the
// closed loop for the window, shutdown, then the body checks.
func (p *servePhase) runEpoch(ctx context.Context, tr *Tracer, rep *report) error {
	o, ep, hot := p.o, p.ep, p.hot
	dir := filepath.Join(o.work, fmt.Sprintf("epoch-%d", ep))
	defer func() { _ = os.RemoveAll(dir) }() // scratch only
	e, err := p.startWarm(ctx, dir, rep)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = e.stop(ctx) // error path: the first error is the one reported
		}
	}()

	var replays []*replayer
	if tr != nil {
		if e.replay, err = serve.New(serve.Config{Workers: 1, Clock: wallClock{}, CacheDir: filepath.Join(dir, "cache")}); err != nil {
			return err
		}
		for c := 0; c < serveClients; c++ {
			rdir := filepath.Join(dir, fmt.Sprintf("replay-%d", c))
			keys, err := archive.OpenKeyDir(rdir)
			if err != nil {
				return err
			}
			defer func() { _ = keys.Close() }() // scratch index, removed with dir
			replays = append(replays, &replayer{tr: tr, srv: e.replay, dir: rdir, keys: keys})
		}
	}

	var mu sync.Mutex
	var done []*request
	var reqSeq atomic.Int64
	deadline := nanotime() + int64(p.window)
	var wg sync.WaitGroup
	var cerr [serveClients]error
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for i := 0; nanotime() < deadline && ctx.Err() == nil; i++ {
				hit := (i+c)%2 == 0
				var next *prepared
				if hit {
					next = hot[(i/2+c)%serveHot]
				} else {
					np, err := prepare(o, p.misses.Add(1)-1)
					if err != nil {
						cerr[c] = err
						return
					}
					next = np
				}
				r := e.do(ctx, next, hit, buf)
				r.id = int(reqSeq.Add(1)) + ep<<32
				if tr != nil && r.err == nil {
					if err := replays[c].replay(r); err != nil {
						cerr[c] = err
						return
					}
				}
				mu.Lock()
				done = append(done, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range cerr {
		if err != nil {
			return err
		}
	}
	snap := e.srv.Snapshot()
	p.snap.CacheHits += snap.CacheHits
	p.snap.Executions += snap.Executions
	p.snap.Coalesced += snap.Coalesced
	p.snap.Rejected += snap.Rejected
	stopped = true
	if err := e.stop(ctx); err != nil {
		return err
	}

	// Checks, outside the timed window: every miss body against a direct
	// run of its spec (computed on serveWorkers goroutines), every hit
	// body against its hot spec's reference.
	var rerr [serveWorkers]error
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(done) && rerr[w] == nil; i += serveWorkers {
				if r := done[i]; !r.hit {
					r.p.ref, rerr[w] = referenceDigest(o, r.p.k)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range rerr {
		if err != nil {
			return err
		}
	}
	var measured []*request
	for _, r := range done {
		rep.op(r.check())
		if tr == nil || r.err == nil {
			measured = append(measured, r)
		}
	}
	if tr == nil {
		p.plain = append(p.plain, measured)
	} else {
		p.traced = append(p.traced, measured)
	}
	return nil
}
