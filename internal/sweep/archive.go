package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/failpoint"
)

// DefaultStaleTmpTTL is how old an in-progress *.tmp shard must be
// before archive runs treat it as crash litter and remove it. Temps
// younger than this are presumed to belong to a live writer sharing
// the directory (a distributed-sweep worker in another process) and
// are never touched; lease-coordinated runs pass their lease TTL
// instead, which bounds how long a dead worker's litter lingers.
//
// Age alone cannot distinguish a dead writer from a live one whose
// current point simply computes for longer than the TTL without
// flushing any bytes, so every run also freshens its open tmps'
// mtimes on a timer well inside the TTL (see tmpKeepalive): only a
// writer that stopped existing lets its tmp age out.
const DefaultStaleTmpTTL = 10 * time.Minute

// ArchiveStats summarizes one RunArchive call.
type ArchiveStats struct {
	// Archived counts the points newly written by this call.
	Archived int
	// Skipped counts the points already present from earlier runs and
	// skipped by resume.
	Skipped int
	// Shards counts the shard files this call sealed (empty shards are
	// aborted, not sealed).
	Shards int
}

// ArchivePointFunc evaluates one sweep point and writes its output
// through the open archive record: stream sample rows via rec (it is a
// sim.Sink — hand it to sim.RunStream or tee it with the summary
// accumulators through sim.RunSummaryTo), then seal the record with rec.Finish. A record left
// unsealed by a nil return is an error; on a non-nil return the record
// is rolled back so the shard keeps no partial data.
type ArchivePointFunc func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error

// RunArchive evaluates a generated sweep in archive mode: point i's
// parameter vector comes from gen(i) and its full output — sample rows
// included — is persisted into dir instead of being reduced. It is the
// disk-backed counterpart of RunReduce for sweeps whose per-point
// trajectories must survive for post-hoc analysis.
//
// Each worker owns one shard file, so record writes are lock-free; a
// shard becomes visible under its final name only through an atomic
// rename when it is sealed, so an interrupted run leaves complete
// shards plus ignorable *.tmp litter (removed by a later call once it
// is older than DefaultStaleTmpTTL — live runs keep their open temps'
// mtimes fresh, so a tmp that old belongs to no one).
// RunArchive is resumable: it scans the completed shards already in dir
// and skips their point indices, so re-running after a crash or cancel
// archives exactly the missing points. Record payloads depend only on
// (i, params, fn), not on worker count or shard layout, so a resumed
// archive is bitwise-identical record-for-record to an uninterrupted
// one.
//
// Cancellation and errors follow RunReduce: the first genuine point
// error cancels the sweep and is reported deterministically (echoes of
// the cancellation never win), an externally canceled run returns
// ctx.Err(). Either way every worker rolls back its in-progress record
// and seals (or, when empty, removes) its shard — no truncated files
// are left behind.
func RunArchive(ctx context.Context, dir string, n, workers int, gen func(i int) []float64, fn ArchivePointFunc) (ArchiveStats, error) {
	return ArchiveRun{Dir: dir, Hi: n, Workers: workers}.Run(ctx, gen, fn)
}

// ArchiveRun configures one archive-mode sweep over the point-index
// range [Lo, Hi). The zero value plus Dir and Hi reproduces RunArchive;
// the extra knobs exist for lease-coordinated distributed runs
// (internal/dsweep), where several processes share one directory and a
// worker must be able to restrict itself to its leased range, leave
// other writers' files alone, and fence its commits against a lost
// lease.
type ArchiveRun struct {
	// Dir is the shared archive directory.
	Dir string
	// Lo and Hi bound the half-open point-index range to archive.
	Lo, Hi int
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// StaleTmpAfter gates crash-litter cleanup: *.tmp shards younger
	// than this are presumed to belong to a live writer sharing the
	// directory and are left alone. 0 means DefaultStaleTmpTTL; a
	// negative value disables cleanup entirely. The run keeps its own
	// open tmps fresh (mtime bumps every StaleTmpAfter/4), so the gate
	// stays safe no matter how long one point computes — but every run
	// sharing a directory must use the same value, or a sharer with a
	// shorter TTL could outpace a slower sharer's keepalive.
	StaleTmpAfter time.Duration
	// DiscardOnCancel aborts (instead of seals) every worker's shard
	// when the run ends canceled. Lease-coordinated runs need this: a
	// worker whose lease was lost must not publish records another
	// worker may be re-archiving, or the directory would hold the same
	// point twice.
	DiscardOnCancel bool
	// BeforeSeal, when non-nil, runs immediately before each non-empty
	// shard is sealed; a non-nil error aborts the shard instead of
	// committing it. Distributed workers use it as a fencing check
	// ("do I still hold the lease?") at the last possible moment.
	BeforeSeal func() error
	// Codec selects the record codec of the shards this run writes.
	// The zero value is the archive default (delta compression);
	// resumed runs may mix codecs freely in one directory, since every
	// record is self-describing and resume matches on point indices,
	// not bytes.
	Codec archive.Codec
}

// Run executes the configured archive sweep. Semantics match
// RunArchive, restricted to [Lo, Hi): TTL-gated tmp cleanup, resume by
// index scan, per-worker shards claimed collision-tolerantly
// (archive.CreateAnyWith), deterministic error reporting, and — under
// fault injection — a simulated crash abandons the worker's shard
// exactly as a killed process would: no rollback, no seal, litter left
// in place.
func (r ArchiveRun) Run(ctx context.Context, gen func(i int) []float64, fn ArchivePointFunc) (ArchiveStats, error) {
	var stats ArchiveStats
	if fn == nil {
		return stats, errors.New("sweep: nil point function")
	}
	if gen == nil {
		return stats, errors.New("sweep: nil point generator")
	}
	if r.Dir == "" {
		return stats, errors.New("sweep: empty archive directory")
	}
	if r.Lo < 0 || r.Hi < r.Lo {
		return stats, fmt.Errorf("sweep: bad point range [%d, %d)", r.Lo, r.Hi)
	}
	if r.Hi == r.Lo {
		return stats, nil
	}
	dir := r.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("sweep: %w", err)
	}
	if err := r.cleanStaleTmps(); err != nil {
		return stats, err
	}
	// Resume: collect the in-range indices already archived by
	// completed shards.
	done := make(map[int]bool)
	prev, err := archive.OpenDir(dir)
	if err != nil {
		return stats, fmt.Errorf("sweep: scanning archive for resume: %w", err)
	}
	for _, idx := range prev.Indices() {
		if idx >= uint64(r.Lo) && idx < uint64(r.Hi) {
			done[int(idx)] = true
		}
	}
	_ = prev.Close() // read-only close; the index set is already in hand
	stats.Skipped = len(done)
	remaining := r.Hi - r.Lo - stats.Skipped
	if remaining == 0 {
		return stats, nil
	}
	base, err := archive.NextShard(dir)
	if err != nil {
		return stats, fmt.Errorf("sweep: %w", err)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > remaining {
		workers = remaining
	}
	// Keep this run's open tmps visibly alive: a sharer's age-gated
	// cleanup must never mistake them for crash litter, even when a
	// single point computes past the TTL without flushing a byte.
	keep := startTmpKeepalive(r.staleTmpTTL() / 4)
	defer keep.close()

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	var archived, sealedShards atomic.Int64
	fail := func(format string, args ...any) {
		errOnce.Do(func() {
			firstErr = fmt.Errorf(format, args...)
			cancel()
		})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(claim int) {
			defer wg.Done()
			var aw *archive.Writer
			defer func() {
				if aw != nil {
					// From here the shard is sealed, aborted, or (on a
					// simulated crash) genuine litter — stop refreshing it.
					keep.forget(aw.TmpPath())
				}
				if rec := recover(); rec != nil {
					c, ok := failpoint.AsCrash(rec)
					if !ok {
						panic(rec)
					}
					// Simulated process death: abandon everything as
					// the crash left it — no rollback, no seal, no
					// tmp cleanup. Resume redoes the lost points.
					fail("sweep: worker crashed: %w", c)
					return
				}
				if aw == nil {
					return
				}
				if aw.Len() == 0 {
					_ = aw.Abort()
					return
				}
				if r.DiscardOnCancel && ctx.Err() != nil {
					// The run was canceled (lease lost, sibling crash,
					// caller abort): publishing this shard could race a
					// re-leasing worker into duplicate indices, so the
					// records are discarded and redone later.
					_ = aw.Abort()
					return
				}
				if r.BeforeSeal != nil {
					if err := r.BeforeSeal(); err != nil {
						_ = aw.Abort()
						fail("sweep: pre-seal check: %w", err)
						return
					}
				}
				// Seal the shard even when the sweep failed: its records
				// are complete points, and preserving them is what makes
				// the next run resume instead of redoing the work.
				if err := aw.Close(); err != nil {
					fail("sweep: sealing shard: %w", err)
					return
				}
				sealedShards.Add(1)
			}()
			var err error
			aw, err = archive.CreateAnyWith(dir, claim, r.Codec)
			if err != nil {
				fail("sweep: creating shard: %w", err)
				return
			}
			keep.watch(aw.TmpPath())
			for i := range idx {
				if ctx.Err() != nil {
					continue
				}
				if err := archivePoint(ctx, aw, i, gen, fn); err != nil {
					if !isCancelEcho(ctx, err) {
						fail("sweep: point %d: %w", i, err)
					}
					continue
				}
				archived.Add(1)
			}
		}(base + w)
	}
feed:
	for i := r.Lo; i < r.Hi; i++ {
		if done[i] {
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	stats.Archived = int(archived.Load())
	stats.Shards = int(sealedShards.Load())
	if firstErr != nil {
		return stats, firstErr
	}
	return stats, parent.Err()
}

// staleTmpTTL resolves the effective crash-litter age gate. A negative
// StaleTmpAfter disables this run's cleanup, but the default still
// paces the keepalive: sharers may clean with gates of their own.
func (r ArchiveRun) staleTmpTTL() time.Duration {
	if r.StaleTmpAfter > 0 {
		return r.StaleTmpAfter
	}
	return DefaultStaleTmpTTL
}

// cleanStaleTmps removes crash litter: in-progress shards of a dead
// run that never reached their atomic rename. Their points were never
// marked done, so removing them loses nothing — but when two processes
// share a directory, a *.tmp younger than the TTL is presumed to be a
// live worker's open shard and is never touched. Live workers freshen
// their tmps' mtimes from inside the TTL (tmpKeepalive), so age is a
// faithful death certificate, not a guess about compute speed.
//
//pomvet:allow wallclock tmp staleness is judged by real file age because a dead sharing process can only be detected by wall-clock time passing
func (r ArchiveRun) cleanStaleTmps() error {
	if r.StaleTmpAfter < 0 {
		return nil
	}
	ttl := r.staleTmpTTL()
	tmps, err := filepath.Glob(archive.TmpPattern(r.Dir))
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	now := time.Now()
	for _, tmp := range tmps {
		fi, err := os.Stat(tmp)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // another sharer cleaned it first
			}
			return fmt.Errorf("sweep: %w", err)
		}
		if now.Sub(fi.ModTime()) < ttl {
			continue // presumed live writer
		}
		if err := os.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("sweep: removing stale %s: %w", tmp, err)
		}
	}
	return nil
}

// tmpKeepalive periodically freshens the mtime of every watched
// in-progress shard so a sharing run's age-gated cleanup never
// mistakes a live writer's tmp for crash litter — without it, a point
// that computes longer than the TTL between flushes would let the tmp
// age out while its writer is still alive, and a sibling would delete
// (and then collide with) the open shard. Ticking at a quarter of the
// TTL leaves a 4x margin over scheduling stalls.
type tmpKeepalive struct {
	mu    sync.Mutex
	paths map[string]struct{}
	stop  chan struct{}
	done  chan struct{}
}

// startTmpKeepalive launches the refresh loop at the given period.
//
//pomvet:allow wallclock keepalive must freshen tmp mtimes in real time so sibling processes' TTL-gated cleanup sees this writer as alive; simulation output never observes these clocks
func startTmpKeepalive(period time.Duration) *tmpKeepalive {
	// A floor keeps a deliberately tiny TTL (tests force-expiring
	// everything) from turning the loop into a busy spin.
	const minPeriod = 10 * time.Millisecond
	if period < minPeriod {
		period = minPeriod
	}
	k := &tmpKeepalive{
		paths: make(map[string]struct{}),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(k.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-k.stop:
				return
			case <-t.C:
			}
			now := time.Now()
			k.mu.Lock()
			paths := make([]string, 0, len(k.paths))
			for p := range k.paths {
				paths = append(paths, p)
			}
			k.mu.Unlock()
			sort.Strings(paths)
			for _, p := range paths {
				// Best-effort: a tmp sealed or aborted since the snapshot
				// is gone, and freshening a reused name is harmless (it
				// either belongs to a live sharer or ages out next TTL).
				_ = os.Chtimes(p, now, now)
			}
		}
	}()
	return k
}

// watch registers an open shard's tmp path for refreshing.
func (k *tmpKeepalive) watch(path string) {
	k.mu.Lock()
	k.paths[path] = struct{}{}
	k.mu.Unlock()
}

// forget stops refreshing a sealed, aborted, or abandoned tmp path.
func (k *tmpKeepalive) forget(path string) {
	k.mu.Lock()
	delete(k.paths, path)
	k.mu.Unlock()
}

// close stops the refresh loop and waits for it to exit.
func (k *tmpKeepalive) close() {
	close(k.stop)
	<-k.done
}

// archivePoint runs one point against its worker's shard under the
// standard panic guard. Whatever goes wrong — a gen/fn panic, a point
// error, an unsealed record — the record is rolled back before the
// error is returned, so the shard holds only complete records.
func archivePoint(ctx context.Context, aw *archive.Writer, i int, gen func(int) []float64, fn ArchivePointFunc) (err error) {
	var rec *archive.RecordWriter
	defer func() {
		if r := recover(); r != nil {
			if _, ok := failpoint.AsCrash(r); ok {
				// A simulated crash is process death, not a point
				// failure: no rollback, no recovery — let it unwind to
				// the worker's crash handler.
				panic(r)
			}
			err = fmt.Errorf("worker panicked: %v", r)
		}
		if err != nil && rec != nil {
			if rbErr := aw.Rollback(rec); rbErr != nil {
				err = errors.Join(err, rbErr)
			}
		}
	}()
	params := gen(i)
	rec, err = aw.Begin(uint64(i), params)
	if err != nil {
		return err
	}
	if err := fn(ctx, i, params, rec); err != nil {
		return err
	}
	if !rec.Sealed() {
		return errors.New("point function returned without Finish-ing its record")
	}
	return nil
}
