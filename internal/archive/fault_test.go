package archive

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/failpoint"
)

// smallRecord builds a tiny deterministic record for fault tests.
func smallRecord(index uint64) *Record {
	return &Record{
		Index:   index,
		Params:  []float64{float64(index) + 0.5},
		Width:   2,
		Ts:      []float64{0, 1},
		Samples: []float64{1, 2, 3, 4},
		Metrics: []float64{float64(index)},
	}
}

// TestCloseSyncsParentDir is the durability regression test for the
// rename-on-close path: without the directory fsync a committed shard
// can vanish on power loss. The failpoint observes that the seam runs
// exactly once per Close, after the rename.
func TestCloseSyncsParentDir(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	failpoint.Enable(SiteSyncDir, failpoint.Observe())
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(smallRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := failpoint.Hits(SiteSyncDir); got != 1 {
		t.Fatalf("parent-dir fsync ran %d times during Close, want exactly 1", got)
	}
}

// TestCloseReportsDirSyncFailureButKeepsShard: a failed directory sync
// is an error the caller must hear about, but the renamed shard is
// already committed and must never be rolled back.
func TestCloseReportsDirSyncFailureButKeepsShard(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	failpoint.Enable(SiteSyncDir, failpoint.FailAt(1, boom))
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(smallRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want the injected dir-sync failure", err)
	}
	if _, err := os.Stat(w.Path()); err != nil {
		t.Fatalf("committed shard missing after dir-sync failure: %v", err)
	}
	// The shard is valid: the data+rename completed before the fault.
	s, err := OpenShard(w.Path())
	if err != nil {
		t.Fatalf("committed shard unreadable: %v", err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("shard has %d records, want 1", s.Len())
	}
}

// TestInjectedWriteErrorRollsBackAndHeals: a transient write fault
// poisons only the in-flight record; rolling it back truncates the
// damage away and the writer keeps working — the recovery path sweep
// workers and the retry helper lean on.
func TestInjectedWriteErrorRollsBackAndHeals(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient")
	failpoint.Enable(SiteWrite, failpoint.FailAt(2, boom)) // first post-Create write
	if err := w.Append(smallRecord(7)); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want injected fault", err)
	}
	failpoint.Disable(SiteWrite)
	// The failed Append rolled its record back; the writer is healed.
	if err := w.Append(smallRecord(8)); err != nil {
		t.Fatalf("Append after rollback: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShard(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("shard has %d records, want only the retried one", s.Len())
	}
	rec, err := s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 8 {
		t.Fatalf("surviving record index = %d, want 8", rec.Index)
	}
}

// TestTornWriteOnUnsealedShardPoisonsClose: a torn write that is not
// rolled back must keep the shard from sealing, so no reader ever sees
// the damage under a committed name.
func TestTornWriteOnUnsealedShardPoisonsClose(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(smallRecord(0)); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(SiteWrite, failpoint.TearAt(1, 3, nil))
	rec, err := w.Begin(1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1, 1)
	rec.Sample(0, []float64{1})
	if err := rec.Finish(nil, nil); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Finish error = %v, want injected tear", err)
	}
	failpoint.Disable(SiteWrite)
	if err := w.Close(); err == nil {
		t.Fatal("Close sealed a shard with an open, torn record")
	}
	if _, err := os.Stat(w.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("poisoned shard became visible under its final name")
	}
}

// TestCrashLeavesTornTmpAndReadersRejectIt drives the full torn-write
// story: a simulated crash mid-write leaves a torn *.tmp exactly as a
// killed worker would; promoting that litter to a committed name (the
// one thing resume never does, simulated here directly) must surface
// ErrCorrupt from every reader, never a panic.
func TestCrashLeavesTornTmpAndReadersRejectIt(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(smallRecord(0)); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable(SiteWrite, failpoint.CrashTornAt(1, 5))
	func() {
		defer func() {
			if c, ok := failpoint.AsCrash(recover()); !ok {
				t.Fatalf("expected simulated crash, got %v", c)
			}
		}()
		_ = w.Append(smallRecord(1))
		t.Fatal("Append survived a simulated crash")
	}()
	failpoint.Disable(SiteWrite)

	tmp := filepath.Join(dir, "shard-00000.pom.tmp")
	fi, err := os.Stat(tmp)
	if err != nil {
		t.Fatalf("crash left no tmp litter: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("torn tmp is empty; expected the torn prefix on disk")
	}
	// A crashed worker's tmp never becomes visible; simulate the one
	// sequence of events resume guards against (a bogus rename) to pin
	// the reader behavior on exactly this litter.
	bad := filepath.Join(dir, "shard-00000.pom")
	if err := os.Rename(tmp, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShard(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenShard on torn shard = %v, want ErrCorrupt", err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDir with torn shard = %v, want ErrCorrupt", err)
	}
}

// TestReadersRejectEmptyAndTruncatedShards: killed workers can leave
// zero-byte files and every possible truncation of a valid shard;
// readers must fail cleanly (ErrCorrupt or an I/O error) on all of
// them — this loop walks every prefix length of a real shard.
func TestReadersRejectEmptyAndTruncatedShards(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if err := w.Append(smallRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}

	tdir := t.TempDir()
	victim := filepath.Join(tdir, "shard-00000.pom")
	for size := 0; size < len(whole); size++ {
		if err := os.WriteFile(victim, whole[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenShard(victim)
		if err == nil {
			s.Close()
			t.Fatalf("OpenShard accepted a shard truncated to %d of %d bytes", size, len(whole))
		}
	}
	// The sweet spot: a full-length file whose tail bytes are zeroed
	// (a torn write inside a preallocated block).
	zeroed := append([]byte(nil), whole...)
	for i := len(zeroed) - 20; i < len(zeroed); i++ {
		zeroed[i] = 0
	}
	if err := os.WriteFile(victim, zeroed, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenShard(victim); err == nil {
		s.Close()
		t.Fatal("OpenShard accepted a shard with a zeroed tail")
	}
}

// TestCreateAnySkipsTakenIds: the cross-process shard-claim path walks
// past ids already committed or in progress instead of failing.
func TestCreateAnySkipsTakenIds(t *testing.T) {
	dir := t.TempDir()
	w0, err := CreateWith(dir, 0, CodecDefault) // id 0 in progress
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Abort()
	w1, err := CreateWith(dir, 1, CodecDefault) // id 1 committed
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append(smallRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := CreateAnyWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if got, want := w.Path(), filepath.Join(dir, "shard-00002.pom"); got != want {
		t.Fatalf("CreateAnyWith claimed %s, want %s", got, want)
	}
}
