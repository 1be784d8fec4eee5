package archive

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The streaming record writer is the archive's sim.Sink adapter:
// solver rows flow from sim.RunStream straight to the shard.
var _ sim.Sink = (*RecordWriter)(nil)

// randRecord builds a random record in canonical (flattened) form.
func randRecord(rng *rand.Rand, index uint64) *Record {
	rec := &Record{Index: index}
	if n := rng.Intn(5); n > 0 {
		rec.Params = make([]float64, n)
		for i := range rec.Params {
			rec.Params[i] = rng.NormFloat64()
		}
	}
	rec.Width = rng.Intn(7)
	nSamples := rng.Intn(20)
	if rec.Width == 0 {
		nSamples = 0 // zero-width rows carry no information; keep canonical
	}
	if nSamples > 0 {
		rec.Ts = make([]float64, nSamples)
		rec.Samples = make([]float64, nSamples*rec.Width)
		for k := range rec.Ts {
			rec.Ts[k] = float64(k) + rng.Float64()
		}
		for i := range rec.Samples {
			rec.Samples[i] = rng.NormFloat64()
		}
	}
	if n := rng.Intn(4); n > 0 {
		rec.Metrics = make([]float64, n)
		for i := range rec.Metrics {
			rec.Metrics[i] = rng.NormFloat64()
		}
	}
	if rng.Intn(3) == 0 {
		tr := trace.NewTrace(1 + rng.Intn(3))
		for r := 0; r < tr.N(); r++ {
			at := rng.Float64()
			for s := 0; s < rng.Intn(4); s++ {
				d := 0.1 + rng.Float64()
				tr.Record(r, trace.SpanKind(s%2), at, at+d)
				at += d
			}
			tr.MarkIterEnd(r, at+1)
		}
		rec.Trace = tr
	}
	return rec
}

// recordsEqual compares two records bitwise (floats by their IEEE bits).
func recordsEqual(a, b *Record) bool {
	bitsEq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Index == b.Index && a.Width == b.Width &&
		bitsEq(a.Params, b.Params) && bitsEq(a.Ts, b.Ts) &&
		bitsEq(a.Samples, b.Samples) && bitsEq(a.Metrics, b.Metrics) &&
		reflect.DeepEqual(a.Trace, b.Trace)
}

// TestRoundTripProperty is the record-format property test: N random
// records written across two shards read back bitwise-equal, including
// embedded traces, through both random access and iteration.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	const n = 40
	want := make([]*Record, n)
	writers := [2]*Writer{}
	for s := range writers {
		w, err := CreateWith(dir, s, CodecDefault)
		if err != nil {
			t.Fatal(err)
		}
		writers[s] = w
	}
	for i := 0; i < n; i++ {
		want[i] = randRecord(rng, uint64(i))
		if err := writers[i%2].Append(want[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != n {
		t.Fatalf("archive has %d points, want %d", a.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, err := a.Read(uint64(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !recordsEqual(got, want[i]) {
			t.Fatalf("record %d changed through round trip:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	seen := 0
	err = a.Iter(func(rec *Record) error {
		if rec.Index != uint64(seen) {
			t.Fatalf("Iter out of order: got %d at position %d", rec.Index, seen)
		}
		seen++
		return nil
	})
	if err != nil || seen != n {
		t.Fatalf("Iter: %v after %d records", err, seen)
	}
}

// TestStreamedMatchesAppend pins that the streaming sink path and the
// whole-record Append path produce byte-identical payloads.
func TestStreamedMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rec := randRecord(rng, 3)
	dirA, dirB := t.TempDir(), t.TempDir()

	wa, err := CreateWith(dirA, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := wa.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}

	wb, err := CreateWith(dirB, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wb.Begin(rec.Index, rec.Params)
	if err != nil {
		t.Fatal(err)
	}
	rw.Begin(rec.Width, rec.NSamples()) // the sim.Sink entry points
	for k := 0; k < rec.NSamples(); k++ {
		rw.Sample(rec.Ts[k], rec.Row(k))
	}
	if err := rw.Finish(rec.Metrics, rec.Trace); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}

	sa, err := OpenShard(filepath.Join(dirA, shardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := OpenShard(filepath.Join(dirB, shardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	pa, err1 := sa.ReadRaw(0)
	pb, err2 := sb.ReadRaw(0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(pa, pb) {
		t.Error("streamed and appended payloads differ")
	}
}

// formatVariants enumerates every shard format the readers accept: the
// two POMARC2 codecs plus the legacy POMARC1 generation. Corruption
// sweeps and round-trip properties run over all of them.
var formatVariants = []string{"delta", "raw", "v1"}

// v1Shard is a legacy POMARC1 shard holding variantRecords(). It was
// written by the POMARC1 writer, which no longer exists; the readers
// keep accepting the format.
const v1Shard = "testdata/pomarc1/shard-00000.pom"

// variantRecords returns the records every variant shard holds:
// randRecord draws from seed 77, with specialRecord at every fifth index.
func variantRecords() []*Record {
	rng := rand.New(rand.NewSource(77))
	recs := make([]*Record, 10)
	for i := range recs {
		if i%5 == 4 {
			recs[i] = specialRecord(uint64(i))
		} else {
			recs[i] = randRecord(rng, uint64(i))
		}
	}
	return recs
}

// writeVariantShard puts variantRecords() into shard id of dir in the
// named format and returns the shard's path.
func writeVariantShard(t *testing.T, variant, dir string, id int) string {
	t.Helper()
	path := filepath.Join(dir, shardName(id))
	if variant == "v1" {
		data, err := os.ReadFile(v1Shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	codec := map[string]Codec{"delta": CodecDelta, "raw": CodecRaw}[variant]
	w, err := CreateWith(dir, id, codec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range variantRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTornWrite truncates a shard at every byte boundary and asserts the
// reader reports corruption (or reads cleanly, never panics) — the
// torn-write half of the format's crash-safety story, for every format
// variant (both POMARC2 codecs and legacy POMARC1).
func TestTornWrite(t *testing.T) {
	for _, v := range formatVariants {
		t.Run(v, func(t *testing.T) {
			path := writeVariantShard(t, v, t.TempDir(), 0)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			scratch := t.TempDir()
			cut := filepath.Join(scratch, shardName(0))
			for size := 0; size < len(good); size++ {
				if err := os.WriteFile(cut, good[:size], 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := OpenShard(cut)
				if err == nil {
					s.Close()
					t.Fatalf("truncation to %d of %d bytes accepted", size, len(good))
				}
				if !errors.Is(err, ErrCorrupt) && size > 0 {
					t.Fatalf("truncation to %d: error %v does not wrap ErrCorrupt", size, err)
				}
			}
		})
	}
}

// TestBitRot flips bytes in the record payloads and the footer: index
// loading or record reads must fail with ErrCorrupt, never panic — the
// CRC runs over the compressed payload, so damage inside a delta row
// surfaces exactly like damage inside a raw one.
func TestBitRot(t *testing.T) {
	for _, v := range formatVariants {
		t.Run(v, func(t *testing.T) {
			path := writeVariantShard(t, v, t.TempDir(), 0)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			scratch := t.TempDir()
			for pos := headerLen; pos < len(good); pos += 7 {
				bad := append([]byte(nil), good...)
				bad[pos] ^= 0x41
				target := filepath.Join(scratch, shardName(0))
				if err := os.WriteFile(target, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := OpenShard(target)
				if err != nil {
					continue // index-level damage detected at open
				}
				for k := 0; k < s.Len(); k++ {
					if _, err := s.Read(k); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Errorf("flip at %d: record %d error %v does not wrap ErrCorrupt", pos, k, err)
					}
				}
				s.Close()
			}
		})
	}
}

func TestRollback(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	// An unfinished record rolls back...
	rw, err := w.Begin(7, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rw.Begin(2, 5)
	rw.Sample(0, []float64{3, 4})
	if err := w.Rollback(rw); err != nil {
		t.Fatal(err)
	}
	// ...a sealed one rolls back too...
	rw2, err := w.Begin(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw2.Finish([]float64{9}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(rw2); err != nil {
		t.Fatal(err)
	}
	// ...and a fresh record written afterwards is all that remains.
	if err := w.Append(&Record{Index: 9, Metrics: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != 1 || !a.Has(9) || a.Has(7) || a.Has(8) {
		t.Errorf("after rollbacks archive holds %v", a.Indices())
	}
}

func TestShortSampleStreamRejected(t *testing.T) {
	w, err := CreateWith(t.TempDir(), 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := w.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw.Begin(2, 3)
	rw.Sample(0, []float64{1, 2}) // only 1 of 3 promised rows
	if err := rw.Finish(nil, nil); err == nil {
		t.Error("short sample stream accepted")
	}
	if err := w.Rollback(rw); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("abort left %d files behind", len(ents))
	}
}

func TestNextShard(t *testing.T) {
	dir := t.TempDir()
	if id, err := NextShard(dir); err != nil || id != 0 {
		t.Fatalf("empty dir: %d, %v", id, err)
	}
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// An in-progress tmp shard reserves its id too.
	if err := os.WriteFile(filepath.Join(dir, shardName(3)+".tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if id, err := NextShard(dir); err != nil || id != 4 {
		t.Fatalf("NextShard = %d, %v; want 4", id, err)
	}
}

// TestRecordWithoutSamples pins the params+metrics-only record shape: a
// point function that never drives the sink still produces a payload
// the reader accepts (regression: the empty dimension section used to
// be skipped entirely, mis-aligning every later field).
func TestRecordWithoutSamples(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := w.Begin(4, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Finish([]float64{9, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rec, err := a.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width != 0 || rec.NSamples() != 0 || len(rec.Params) != 3 || len(rec.Metrics) != 2 {
		t.Errorf("sample-less record decoded wrong: %+v", rec)
	}
}

// TestDecodeOverflowingDimensions feeds decodePayload a crafted payload
// whose (width, nSamples) product overflows the naive bounds check: it
// must error, not reach make() and panic.
func TestDecodeOverflowingDimensions(t *testing.T) {
	var b []byte
	b = u64(b, 0)          // index
	b = u32(b, 0)          // nParams
	b = u32(b, 1<<29-1)    // width
	b = u32(b, 0xffffffff) // nSamples: rowBytes*nSamples wraps negative
	b = u32(b, 0)          // nMetrics
	b = u32(b, 0)          // traceLen
	if _, err := decodeRawPayload(b); err == nil {
		t.Fatal("overflowing dimensions accepted")
	}
	if _, err := decodeDeltaPayload(b); err == nil {
		t.Fatal("overflowing dimensions accepted by the delta codec")
	}
	// And a merely-huge pair that fits in int64 but not the payload.
	b2 := append([]byte(nil), b[:12]...)
	b2 = u32(b2, 1000)
	b2 = u32(b2, 1000)
	b2 = u32(b2, 0)
	b2 = u32(b2, 0)
	if _, err := decodeRawPayload(b2); err == nil {
		t.Fatal("oversized dimensions accepted")
	}
	if _, err := decodeDeltaPayload(b2); err == nil {
		t.Fatal("oversized dimensions accepted by the delta codec")
	}
}

// TestCreateRefusesLiveTmp pins the O_EXCL guard: a second writer on
// the same shard id fails loudly instead of interleaving writes.
func TestCreateRefusesLiveTmp(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWith(dir, 0, CodecDefault)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if w2, err := CreateWith(dir, 0, CodecDefault); err == nil {
		w2.Abort()
		t.Fatal("second writer on the same shard id accepted")
	}
}

func TestDuplicateIndexAcrossShards(t *testing.T) {
	dir := t.TempDir()
	for s := 0; s < 2; s++ {
		w, err := CreateWith(dir, s, CodecDefault)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&Record{Index: 5}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenDir(dir); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate point index accepted: %v", err)
	}
}
