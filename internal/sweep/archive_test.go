package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/failpoint"
)

// testGen derives a small parameter vector from the point index.
func testGen(i int) []float64 { return []float64{float64(i), 0.5 * float64(i)} }

// testPoint writes a deterministic synthetic record for point i: a
// 3-sample, width-2 "trajectory" plus two metrics. Byte-for-byte
// reproducible, which the resume tests rely on.
func testPoint(_ context.Context, i int, params []float64, rec *archive.RecordWriter) error {
	rec.Begin(2, 3)
	for k := 0; k < 3; k++ {
		t := float64(k)
		rec.Sample(t, []float64{params[0] + t, params[1] - t})
	}
	return rec.Finish([]float64{float64(i), -float64(i)}, nil)
}

func mustNoTmpFiles(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(archive.TmpPattern(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("truncated shard files left behind: %v", tmps)
	}
}

func TestRunArchiveCompletes(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	stats, err := RunArchive(context.Background(), dir, n, 4, testGen, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != n || stats.Skipped != 0 || stats.Shards < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	mustNoTmpFiles(t, dir)
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != n {
		t.Fatalf("archive holds %d points, want %d", a.Len(), n)
	}
	for i := 0; i < n; i++ {
		rec, err := a.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Width != 2 || rec.NSamples() != 3 || rec.Params[0] != float64(i) ||
			rec.Metrics[0] != float64(i) || rec.Row(1)[0] != float64(i)+1 {
			t.Fatalf("record %d content wrong: %+v", i, rec)
		}
	}
}

// TestRunArchiveResume interrupts a sweep by context cancellation, then
// resumes it: the second call must skip every archived point, run only
// the missing ones, and complete the archive.
func TestRunArchiveResume(t *testing.T) {
	dir := t.TempDir()
	const n = 32
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := RunArchive(ctx, dir, n, 4, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			if ran.Add(1) == 8 {
				cancel() // simulate the interrupt mid-sweep
			}
			return testPoint(ctx, i, params, rec)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	mustNoTmpFiles(t, dir)
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	already := a.Len()
	a.Close()
	if already == 0 || already == n {
		t.Fatalf("interrupt archived %d of %d points; the test needs a partial archive", already, n)
	}

	var resumed atomic.Int64
	stats, err := RunArchive(context.Background(), dir, n, 4, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			resumed.Add(1)
			return testPoint(ctx, i, params, rec)
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != already || stats.Archived != n-already {
		t.Fatalf("resume stats = %+v, want %d skipped / %d archived", stats, already, n-already)
	}
	if int(resumed.Load()) != n-already {
		t.Fatalf("resume ran %d points, want %d", resumed.Load(), n-already)
	}
	a, err = archive.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != n {
		t.Fatalf("resumed archive holds %d points, want %d", a.Len(), n)
	}
}

// TestRunArchiveResumeBitwiseIdentical is the acceptance pin: an
// interrupted-then-resumed archive reads back record-for-record
// bitwise-identical to an uninterrupted one, regardless of worker
// count and shard layout.
func TestRunArchiveResumeBitwiseIdentical(t *testing.T) {
	const n = 24
	interrupted := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := RunArchive(ctx, interrupted, n, 3, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			if ran.Add(1) == 6 {
				cancel()
			}
			return testPoint(ctx, i, params, rec)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunArchive(context.Background(), interrupted, n, 5, testGen, testPoint); err != nil {
		t.Fatal(err)
	}

	clean := t.TempDir()
	if _, err := RunArchive(context.Background(), clean, n, 2, testGen, testPoint); err != nil {
		t.Fatal(err)
	}

	ai, err := archive.OpenDir(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	defer ai.Close()
	ac, err := archive.OpenDir(clean)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if ai.Len() != n || ac.Len() != n {
		t.Fatalf("archives hold %d / %d points, want %d", ai.Len(), ac.Len(), n)
	}
	for i := 0; i < n; i++ {
		pi, err1 := ai.ReadRaw(uint64(i))
		pc, err2 := ac.ReadRaw(uint64(i))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(pi, pc) {
			t.Fatalf("record %d differs between resumed and uninterrupted archives", i)
		}
	}
}

// TestRunArchiveErrorCleansUp checks the error path: a failing point
// cancels the sweep, its partial record is rolled back, the workers'
// shards are sealed (completed points survive for resume), and no
// *.tmp files remain.
func TestRunArchiveErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	boom := errors.New("boom")
	_, err := RunArchive(context.Background(), dir, n, 2, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			if i == 5 {
				// Fail after streaming a partial row section: the rollback
				// must erase it from the shard.
				rec.Begin(2, 3)
				rec.Sample(0, []float64{1, 2})
				return boom
			}
			return testPoint(ctx, i, params, rec)
		})
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "point 5") {
		t.Fatalf("err = %v, want point 5: boom", err)
	}
	mustNoTmpFiles(t, dir)
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatalf("sealed shards must stay readable after an error: %v", err)
	}
	if a.Has(5) {
		t.Error("failed point must not be archived")
	}
	a.Close()

	// The archive resumes cleanly once the point is fixed.
	stats, err := RunArchive(context.Background(), dir, n, 2, testGen, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped+stats.Archived != n || stats.Archived < 1 {
		t.Fatalf("resume after error: stats = %+v", stats)
	}
}

func TestRunArchivePanicRollsBack(t *testing.T) {
	dir := t.TempDir()
	_, err := RunArchive(context.Background(), dir, 8, 2, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			if i == 3 {
				rec.Begin(1, 2)
				rec.Sample(0, []float64{1})
				panic("mid-record boom")
			}
			return testPoint(ctx, i, params, rec)
		})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a surfaced panic", err)
	}
	mustNoTmpFiles(t, dir)
	if a, err := archive.OpenDir(dir); err != nil {
		t.Fatalf("archive unreadable after panic: %v", err)
	} else {
		if a.Has(3) {
			t.Error("panicked point must not be archived")
		}
		a.Close()
	}
}

func TestRunArchiveUnsealedRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, err := RunArchive(context.Background(), dir, 4, 1, testGen,
		func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
			return nil // never calls Finish
		})
	if err == nil || !strings.Contains(err.Error(), "Finish") {
		t.Fatalf("err = %v, want an unsealed-record error", err)
	}
	mustNoTmpFiles(t, dir)
}

// TestRunArchiveRemovesStaleTmp simulates crash litter: a *.tmp shard
// from a dead run — older than the stale TTL — must be removed and its
// id reused safely.
func TestRunArchiveRemovesStaleTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "shard-00000.pom.tmp")
	if err := os.WriteFile(stale, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-DefaultStaleTmpTTL - time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := RunArchive(context.Background(), dir, 6, 2, testGen, testPoint); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale tmp shard not removed")
	}
	mustNoTmpFiles(t, dir)
}

// TestRunArchiveSparesFreshTmp is the shared-directory regression test:
// a young *.tmp presumably belongs to a live worker in another process
// and must survive someone else's run untouched, with its shard id
// left alone.
func TestRunArchiveSparesFreshTmp(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "shard-00000.pom.tmp")
	if err := os.WriteFile(live, []byte("live worker's open shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunArchive(context.Background(), dir, 6, 2, testGen, testPoint); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatalf("live tmp was removed by a sharing run: %v", err)
	}
	if string(data) != "live worker's open shard" {
		t.Fatal("live tmp was modified by a sharing run")
	}
	// The sharing run must not have claimed the live tmp's shard id.
	if _, err := os.Stat(filepath.Join(dir, "shard-00000.pom")); !os.IsNotExist(err) {
		t.Error("sharing run committed a shard over the live worker's id")
	}
}

// TestRunArchiveSlowPointSurvivesSiblingCleanup pins the keepalive
// half of the shared-directory contract: a worker whose current point
// computes for longer than the stale-tmp TTL must keep its open tmp
// shard looking alive, so a sibling run's TTL-gated cleanup (same TTL,
// as the lease protocol guarantees) neither deletes the file out from
// under the live writer nor reuses its shard id.
func TestRunArchiveSlowPointSurvivesSiblingCleanup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-millisecond keepalive test")
	}
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond
	started := make(chan struct{})
	release := make(chan struct{})
	slowPoint := func(ctx context.Context, i int, params []float64, rec *archive.RecordWriter) error {
		close(started)
		<-release
		return testPoint(ctx, i, params, rec)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ArchiveRun{Dir: dir, Lo: 0, Hi: 1, Workers: 1, StaleTmpAfter: ttl}.
			Run(context.Background(), testGen, slowPoint)
		done <- err
	}()
	<-started
	// Let the slow worker's open tmp sit well past the TTL; only the
	// keepalive's mtime refresh keeps it looking alive.
	time.Sleep(2 * ttl)
	// A sibling over the neighboring range runs the same TTL-gated
	// cleanup on arrival — it must spare the live tmp.
	if _, err := (ArchiveRun{Dir: dir, Lo: 1, Hi: 3, Workers: 1, StaleTmpAfter: ttl}).
		Run(context.Background(), testGen, testPoint); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slow worker failed after sibling's cleanup pass: %v", err)
	}
	mustNoTmpFiles(t, dir)
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatalf("archive corrupt after shared-directory run: %v", err)
	}
	defer a.Close()
	if a.Len() != 3 {
		t.Fatalf("archive holds %d points, want 3", a.Len())
	}
}

// TestArchiveRunRangeMode: an ArchiveRun bounded to [lo, hi) archives
// exactly that range and resumes within it, which is what lets a
// lease-coordinated worker run only its leased slice of the sweep.
func TestArchiveRunRangeMode(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	run := ArchiveRun{Dir: dir, Lo: 4, Hi: 10, Workers: 2}
	stats, err := run.Run(ctx, testGen, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 6 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want 6 archived", stats)
	}
	a, err := archive.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Indices()
	a.Close()
	if len(got) != 6 || got[0] != 4 || got[5] != 9 {
		t.Fatalf("archived indices %v, want exactly 4..9", got)
	}
	// A neighboring range neither redoes nor disturbs the first one.
	stats, err = ArchiveRun{Dir: dir, Lo: 0, Hi: 6, Workers: 2}.Run(ctx, testGen, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 4 || stats.Skipped != 2 {
		t.Fatalf("overlapping range stats = %+v, want 4 archived / 2 resumed", stats)
	}
}

// TestArchiveRunCrashLeavesLitterAndResumes drives the in-process
// crash story end to end: a simulated worker death mid-sweep leaves a
// torn tmp and an error, and a later run over the same directory
// archives exactly the missing points, bitwise-identical to an
// uninterrupted sweep.
func TestArchiveRunCrashLeavesLitterAndResumes(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	ctx := context.Background()

	failpoint.Enable(archive.SiteWrite, failpoint.CrashTornAt(40, 7))
	_, err := ArchiveRun{Dir: dir, Hi: 12, Workers: 2}.Run(ctx, testGen, testPoint)
	var crashed *failpoint.Crashed
	if !errors.As(err, &crashed) {
		t.Fatalf("err = %v, want the simulated crash", err)
	}
	failpoint.Reset()
	tmps, _ := filepath.Glob(archive.TmpPattern(dir))
	if len(tmps) == 0 {
		t.Fatal("crash left no tmp litter")
	}

	// Resume with litter cleanup forced on (everything counts as stale).
	stats, err := ArchiveRun{Dir: dir, Hi: 12, Workers: 3, StaleTmpAfter: time.Nanosecond}.Run(ctx, testGen, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived+stats.Skipped != 12 {
		t.Fatalf("resume stats = %+v, want full coverage of 12 points", stats)
	}
	mustNoTmpFiles(t, dir)

	// Bitwise pin against an undisturbed reference sweep.
	refDir := t.TempDir()
	if _, err := RunArchive(ctx, refDir, 12, 1, testGen, testPoint); err != nil {
		t.Fatal(err)
	}
	compareArchives(t, dir, refDir, 12)
}

// compareArchives asserts the two directories hold records 0..n-1 with
// bitwise-identical payloads.
func compareArchives(t *testing.T, aDir, bDir string, n int) {
	t.Helper()
	a, err := archive.OpenDir(aDir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := archive.OpenDir(bDir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Len() != n || b.Len() != n {
		t.Fatalf("archive sizes %d vs %d, want %d", a.Len(), b.Len(), n)
	}
	for i := 0; i < n; i++ {
		pa, err := a.ReadRaw(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.ReadRaw(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("point %d differs between archives", i)
		}
	}
}

func TestRunArchiveValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunArchive(context.Background(), dir, 3, 1, nil, testPoint); err == nil {
		t.Error("want error for nil gen")
	}
	if _, err := RunArchive(context.Background(), dir, 3, 1, testGen, nil); err == nil {
		t.Error("want error for nil fn")
	}
	if _, err := RunArchive(context.Background(), "", 3, 1, testGen, testPoint); err == nil {
		t.Error("want error for empty dir")
	}
	if stats, err := RunArchive(context.Background(), dir, 0, 1, testGen, testPoint); err != nil || stats.Archived != 0 {
		t.Errorf("empty sweep: %+v, %v", stats, err)
	}
}

// TestRunReduceRealErrorBeatsCancelEcho is the regression test for the
// racy cancellation errors: a point failing for a real reason
// concurrently with the context cancel must be the reported error every
// time — before the fix, whichever worker first echoed "context
// canceled" could claim the error slot.
func TestRunReduceRealErrorBeatsCancelEcho(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := RunReduce(ctx, 16, 4,
			func(i int) int { return i },
			func(ctx context.Context, p int) (int, error) {
				if p == 0 {
					cancel() // the cancel races the real failure below
					return 0, errors.New("boom")
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
			func(int, int, int) {})
		if err == nil || !strings.Contains(err.Error(), "point 0") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("trial %d: err = %v, want the real point-0 failure", trial, err)
		}
		cancel()
	}
}

// TestRunReduceExternalCancelReturnsCtxErr pins the other half: a sweep
// canceled purely from outside reports plain context.Canceled, not an
// arbitrary point's echo of it.
func TestRunReduceExternalCancelReturnsCtxErr(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := RunReduce(ctx, 16, 4,
			func(i int) int { return i },
			func(ctx context.Context, p int) (int, error) {
				cancel()
				<-ctx.Done()
				return 0, ctx.Err()
			},
			func(int, int, int) {})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		if strings.Contains(err.Error(), "point") {
			t.Fatalf("trial %d: external cancel attributed to a point: %v", trial, err)
		}
		cancel()
	}
}
