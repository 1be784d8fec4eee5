package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// ErrQueueFull is returned by Submit when admission passed but the job
// queue has no room — the handler layer maps it to HTTP 503.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// SubmitKind says how a submission was satisfied.
type SubmitKind string

const (
	// SubmitNew admitted a fresh execution.
	SubmitNew SubmitKind = "miss"
	// SubmitHit answered from the result cache without executing.
	SubmitHit SubmitKind = "hit"
	// SubmitCoalesced attached the caller to an identical spec already
	// queued or running — the two share one execution and one result.
	SubmitCoalesced SubmitKind = "coalesced"
)

// Config configures a Server.
type Config struct {
	// Workers is the size of the worker fleet (default 2).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 16).
	QueueDepth int
	// Admission gates new executions (nil means AlwaysAdmit).
	Admission Admission
	// Clock supplies time to admission and snapshots (required).
	Clock Clock
	// CacheDir is the result-cache archive directory (required).
	CacheDir string
	// Codec selects the archive record codec (default CodecDefault).
	Codec archive.Codec
	// SnapshotTTL bounds snapshot staleness (default 1s).
	SnapshotTTL time.Duration
}

// Server runs scenario specs on a bounded worker fleet with admission
// control, request coalescing, and an archive-backed result cache. See
// doc.go for the request lifecycle.
type Server struct {
	clock Clock
	admit Admission
	cache *resultCache
	snap  *snapshotProvider

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job

	mu       chan struct{} // 1-buffered mutex token
	closed   bool
	seq      int
	jobs     map[string]*Job // by job id
	inflight map[string]*Job // hash → queued-or-running job
	// Counters behind mu (snapshot-visible).
	nJobs, nHits, nCoalesced, nRejected, nRunning int
	perFamily                                     map[string]int
	execCount                                     map[string]int // hash → executions started
}

// New starts a server. Callers must Close it to stop the workers and
// release the cache.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, errors.New("serve: Config.Clock is required")
	}
	if cfg.CacheDir == "" {
		return nil, errors.New("serve: Config.CacheDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Admission == nil {
		cfg.Admission = AlwaysAdmit{}
	}
	if cfg.SnapshotTTL <= 0 {
		cfg.SnapshotTTL = time.Second
	}
	cache, err := openResultCache(cfg.CacheDir, cfg.Codec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		clock:     cfg.Clock,
		admit:     cfg.Admission,
		cache:     cache,
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *Job, cfg.QueueDepth),
		mu:        make(chan struct{}, 1),
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		perFamily: make(map[string]int),
		execCount: make(map[string]int),
	}
	s.snap = newSnapshotProvider(cfg.SnapshotTTL, s.buildSnapshot)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *Server) lock()   { s.mu <- struct{}{} }
func (s *Server) unlock() { <-s.mu }

// Submit accepts a validated spec and returns the job that answers it:
// a Done-at-birth job for a cache hit, the already-in-flight job for a
// coalesced duplicate, or a freshly queued job. Admission applies only
// to the last case — hits and coalesced attaches cost no worker.
//
// The cache lookup, in-flight check, admission, and enqueue happen
// under one lock, and workers publish results and retire in-flight
// entries under the same lock, so two racing submits of one spec can
// never both start an execution.
func (s *Server) Submit(spec *scenario.Spec) (*Job, SubmitKind, error) {
	hash, err := scenario.CanonicalHash(spec)
	if err != nil {
		return nil, "", err
	}
	family, err := spec.FamilyName()
	if err != nil {
		return nil, "", err
	}
	now := s.clock.Now()

	s.lock()
	defer s.unlock()
	if s.closed {
		return nil, "", ErrClosed
	}
	if _, ok := s.cache.lookup(hash); ok {
		s.seq++
		j := newCachedJob(fmt.Sprintf("j-%06d", s.seq), hash, family, spec, now)
		s.jobs[j.ID] = j
		s.nJobs++
		s.nHits++
		s.perFamily[family]++
		return j, SubmitHit, nil
	}
	if j, ok := s.inflight[hash]; ok {
		s.nJobs++
		s.nCoalesced++
		s.perFamily[family]++
		return j, SubmitCoalesced, nil
	}
	if ok, retry := s.admit.Admit(now); !ok {
		s.nRejected++
		return nil, "", &RejectedError{RetryAfter: retry}
	}
	s.seq++
	j := newJob(s.ctx, fmt.Sprintf("j-%06d", s.seq), hash, family, spec, now)
	select {
	case s.queue <- j:
	default:
		j.cancel()
		return nil, "", ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.inflight[hash] = j
	s.nJobs++
	s.perFamily[family]++
	return j, SubmitNew, nil
}

// Job returns the job with the given id.
func (s *Server) Job(id string) (*Job, bool) {
	s.lock()
	defer s.unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Executions returns how many executions have started for the given
// canonical hash — the chaos suite's no-duplicate-work probe.
func (s *Server) Executions(hash string) int {
	s.lock()
	defer s.unlock()
	return s.execCount[hash]
}

// Snapshot returns the current state snapshot (rebuilt lazily when the
// published one is older than the configured TTL).
func (s *Server) Snapshot() *Snapshot {
	return s.snap.get(s.clock.Now())
}

// buildSnapshot assembles an immutable snapshot; it runs under the
// provider's rebuild lock.
func (s *Server) buildSnapshot(at time.Time) *Snapshot {
	s.lock()
	defer s.unlock()
	pf := make(map[string]int, len(s.perFamily))
	for fam, n := range s.perFamily {
		pf[fam] = n
	}
	execs := 0
	for _, n := range s.execCount {
		execs += n
	}
	snap := &Snapshot{
		At:           at,
		QueueDepth:   len(s.queue),
		InFlight:     s.nRunning,
		Jobs:         s.nJobs,
		Executions:   execs,
		CacheHits:    s.nHits,
		Coalesced:    s.nCoalesced,
		Rejected:     s.nRejected,
		CacheEntries: s.cache.len(),
		PerFamily:    pf,
	}
	if snap.Jobs > 0 {
		snap.CacheHitRatio = float64(snap.CacheHits) / float64(snap.Jobs)
	}
	return snap
}

// CachedRecord reads the cached record for a hash; ok is false when the
// hash has no published entry.
func (s *Server) CachedRecord(hash string) (*archive.Record, bool, error) {
	shard, ok := s.cache.lookup(hash)
	if !ok {
		return nil, false, nil
	}
	rec, err := s.cache.read(shard)
	if err != nil {
		return nil, true, err
	}
	return rec, true, nil
}

// Close stops accepting work, cancels in-flight jobs, waits for the
// workers to drain, and releases the cache.
func (s *Server) Close() error {
	s.lock()
	if s.closed {
		s.unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.unlock()
	s.cancel() // aborts running jobs at their next sample
	s.wg.Wait()
	return s.cache.close()
}

// worker drains the queue until the queue closes or the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			// Drain without running so queued jobs reach a terminal state
			// even when Close raced new submissions.
			for {
				select {
				case j, ok := <-s.queue:
					if !ok {
						return
					}
					s.finishCanceled(j)
				default:
					return
				}
			}
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		}
	}
}

// runAbort is the panic value the streaming sink throws to unwind a
// canceled run out of the solver loop; runJob recovers it.
type runAbort struct{}

// ndjsonSink renders solver rows into the job's broadcast buffer. It
// re-renders into its own scratch and the buffer copies again, so the
// solver's reused row slice is never retained. Sample polls the job
// context: cancellation aborts the run at row granularity via a
// runAbort panic (sim.RunStream has no context of its own).
type ndjsonSink struct {
	job     *Job
	scratch []byte
}

// Begin implements sim.Sink.
func (k *ndjsonSink) Begin(n, nSamples int) {}

// Sample implements sim.Sink. y is rendered immediately, not retained.
func (k *ndjsonSink) Sample(t float64, y []float64) {
	if k.job.ctx.Err() != nil {
		panic(runAbort{})
	}
	k.scratch = AppendRow(k.scratch[:0], t, y)
	k.job.buf.append(k.scratch)
}

// finishCanceled retires a job that was canceled before running.
func (s *Server) finishCanceled(j *Job) {
	j.setState(StateCanceled, nil)
	j.buf.close(context.Canceled)
	s.lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.unlock()
}

// runJob executes one queued job: build, stream into the broadcast
// buffer and a fresh cache shard, then publish shard and key (in that
// order) and retire the in-flight entry — all completion bookkeeping
// under the submit lock so a racing duplicate submit lands either on
// the in-flight job or on the cache, never in between.
func (s *Server) runJob(j *Job) {
	if j.ctx.Err() != nil {
		s.finishCanceled(j)
		return
	}
	j.setState(StateRunning, nil)
	s.lock()
	s.nRunning++
	s.execCount[j.Hash]++
	s.unlock()
	defer func() {
		s.lock()
		s.nRunning--
		s.unlock()
	}()

	err := s.execute(j)
	switch {
	case err == nil:
		j.setState(StateDone, nil)
		j.buf.close(nil)
	case errors.Is(err, context.Canceled):
		j.setState(StateCanceled, nil)
		j.buf.close(context.Canceled)
	default:
		j.setState(StateFailed, err)
		j.buf.close(err)
	}
	s.lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.unlock()
}

// execute runs the simulation and commits the cache entry. Any
// cancellation (explicit or server shutdown) returns context.Canceled
// with the shard aborted, so a canceled run never poisons the cache.
func (s *Server) execute(j *Job) (err error) {
	sys, tEnd, samples, err := j.Spec.BuildSystem()
	if err != nil {
		return err
	}
	w, rec, err := s.cache.begin()
	if err != nil {
		// The cache is unavailable; still run so the caller gets rows.
		w, rec = nil, nil
	}
	committed := false
	defer func() {
		if w != nil && !committed {
			_ = w.Abort()
		}
	}()

	sink := sim.Sink(&ndjsonSink{job: j})
	if rec != nil {
		sink = sim.Tee(sink, rec)
	}
	aborted := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(runAbort); ok {
					aborted = true
					return
				}
				panic(r)
			}
		}()
		_, err = sim.RunStream(sys, tEnd, samples, sink)
	}()
	if aborted {
		return context.Canceled
	}
	if err != nil {
		return err
	}
	if j.ctx.Err() != nil {
		return context.Canceled
	}
	if w == nil {
		return nil
	}
	if err := rec.Finish(nil, nil); err != nil {
		return nil // result is good; cache write failed, deferred Abort cleans up
	}
	if err := w.Close(); err != nil {
		committed = true // Close cleans up its own tmp on failure
		return nil
	}
	committed = true
	s.lock()
	perr := s.cache.publish(j.Hash, w.Shard())
	s.unlock()
	_ = perr // an unpublished orphan shard is harmless; the run still answered
	return nil
}
