// The shard layout and the streaming write path are documented in
// doc.go; the byte-level constants in this file are the single source
// of truth for both the writer and the readers.

package archive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/failpoint"
	"repro/internal/trace"
)

// Failpoint sites instrumented under the Writer (see package
// failpoint). Chaos tests enable rules here to tear writes, fail
// syncs, or simulate the process dying mid-commit; with no rule
// enabled each seam costs one atomic load.
const (
	// SiteWrite guards every logical write into a shard (header,
	// record frames, footer). Write sizes are the seam's n.
	SiteWrite = "archive/write"
	// SiteSync guards the pre-rename file fsync in Close.
	SiteSync = "archive/sync"
	// SiteRename guards the atomic rename that commits a shard.
	SiteRename = "archive/rename"
	// SiteSyncDir guards the parent-directory fsync after the rename —
	// the step that makes the committed name itself durable.
	SiteSyncDir = "archive/syncdir"
)

// math64bits keeps the encode lines short; floats are stored as their
// IEEE-754 bits so a round trip is bitwise-exact.
func math64bits(v float64) uint64 { return math.Float64bits(v) }

const (
	shardMagicV1 = "POMARC1\n"
	shardMagicV2 = "POMARC2\n"
	recordMagic  = 0x504d5243 // "PMRC"
	footerMagic  = 0x504d4958 // "PMIX"
	trailerMagic = 0x504d4654 // "PMFT"

	headerLen  = 8
	trailerLen = 12
	entryLen   = 8 + 8 + 4
)

// ErrCorrupt reports structural damage to a shard: a torn write, a
// failed CRC, or a mangled index. Readers wrap it with the shard path
// and offset; they never panic on damaged input.
var ErrCorrupt = errors.New("archive: corrupt shard")

// castagnoli is the CRC-32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one archived sweep point in decoded form.
type Record struct {
	// Index is the point's position in the sweep grid.
	Index uint64
	// Params is the point's parameter vector.
	Params []float64
	// Width is the state width N of one sample row.
	Width int
	// Ts are the sample times.
	Ts []float64
	// Samples holds the rows flattened row-major: row k is
	// Samples[k*Width : (k+1)*Width].
	Samples []float64
	// Metrics are the summary metrics (e.g. sim.Summary.Vector).
	Metrics []float64
	// Trace is the optional execution trace.
	Trace *trace.Trace
}

// NSamples returns the number of sample rows.
func (r *Record) NSamples() int { return len(r.Ts) }

// Row returns sample row k (aliasing Samples).
func (r *Record) Row(k int) []float64 { return r.Samples[k*r.Width : (k+1)*r.Width] }

// shardName returns the final file name of shard id.
func shardName(id int) string { return fmt.Sprintf("shard-%05d.pom", id) }

// ShardPattern globs the completed shards of an archive directory.
func ShardPattern(dir string) string { return filepath.Join(dir, "shard-*.pom") }

// ShardPath returns the committed path of the given shard id in dir —
// the file OpenShard expects once the shard's writer has Closed.
func ShardPath(dir string, shard int) string { return filepath.Join(dir, shardName(shard)) }

// TmpPattern globs the in-progress (or crash-littered) shard files.
func TmpPattern(dir string) string { return filepath.Join(dir, "shard-*.pom.tmp") }

// NextShard returns the smallest shard id not used by any completed or
// in-progress shard in dir, so resumed runs never collide with archived
// ones. A missing directory yields 0.
func NextShard(dir string) (int, error) {
	next := 0
	for _, pat := range []string{ShardPattern(dir), TmpPattern(dir)} {
		names, err := filepath.Glob(pat)
		if err != nil {
			return 0, fmt.Errorf("archive: scanning %s: %w", dir, err)
		}
		for _, name := range names {
			var id int
			base := filepath.Base(name)
			if _, err := fmt.Sscanf(base, "shard-%05d.pom", &id); err == nil && id >= next {
				next = id + 1
			}
		}
	}
	return next, nil
}

// Writer appends records to one shard file. It is not safe for
// concurrent use — in a sweep every worker owns its own Writer, which is
// what keeps shard writes lock-free. Records become durable only at
// Close, when the footer index is written, the file synced, and the
// *.tmp name atomically renamed to the final one.
type Writer struct {
	dir   string
	shard int    // shard id (the NNNNN of shard-NNNNN.pom)
	path  string // final path
	tmp   string // in-progress path
	f     *os.File
	bw    *bufio.Writer
	off   int64 // logical write offset (through bw)
	ents  []indexEntry
	rec   *RecordWriter // open record, if any
	buf   []byte        // encoding scratch
	codec Codec         // resolved record codec (CodecRaw or CodecDelta)
	// Per-column predictor state for CodecDelta, sized by
	// RecordWriter.Begin so Sample never allocates (prev[0] is the time
	// column). Owned by the Writer so scratch survives across records.
	prev, prev2 []uint64
	werr        error // sticky injected/deferred write error
	state       writerState
}

type writerState int

const (
	writerOpen writerState = iota
	writerClosed
	writerAborted
)

type indexEntry struct {
	index  uint64
	off    int64
	length uint32
}

// CreateWith opens a new shard writer for the given shard id inside dir
// (created if missing), writing the current format generation (POMARC2)
// with the given record codec. The data lands in a *.tmp file until
// Close.
func CreateWith(dir string, shard int, codec Codec) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	path := filepath.Join(dir, shardName(shard))
	tmp := path + ".tmp"
	// A committed shard must never be silently overwritten by this
	// writer's rename-on-close; refuse the id up front. (The O_EXCL
	// below already serializes racing creators of the same tmp.)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("archive: shard %s already committed: %w", path, fs.ErrExist)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("archive: %w", err)
	}
	// O_EXCL: two writers racing to the same shard id (e.g. concurrent
	// archiving runs over one directory) must fail loudly here instead
	// of silently interleaving into a corrupt shard. Stale tmp files
	// from crashed runs are removed by sweep.RunArchive before it
	// allocates shard ids (TTL-gated, and live runs freshen their open
	// tmps' mtimes, so a live sharer's tmp is never touched), and
	// NextShard never reuses a live tmp's id.
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: creating shard (already being written by another run?): %w", err)
	}
	w := &Writer{
		dir: dir, shard: shard, path: path, tmp: tmp, f: f,
		bw:    bufio.NewWriterSize(f, 1<<16),
		codec: codec.resolve(),
	}
	w.writeRaw([]byte(shardMagicV2))
	return w, nil
}

// CreateAnyWith opens a new shard writer on the first free shard id >=
// from, skipping ids whose final or in-progress file already exists.
// This is the claim path for writers sharing one directory across
// processes: two workers racing NextShard both see the same "next" id,
// the O_EXCL create serializes them, and the loser simply moves to the
// next id instead of failing the run.
func CreateAnyWith(dir string, from int, codec Codec) (*Writer, error) {
	if from < 0 {
		from = 0
	}
	for id := from; ; id++ {
		w, err := CreateWith(dir, id, codec)
		if err == nil {
			return w, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
}

// Path returns the shard's final (post-Close) path.
func (w *Writer) Path() string { return w.path }

// Shard returns the writer's shard id — the id CreateAnyWith settled on,
// which callers that address single-record shards by id (the pomsimd
// result cache) persist alongside their own index.
func (w *Writer) Shard() int { return w.shard }

// TmpPath returns the shard's in-progress (pre-Close) path. Runs that
// share a directory use it to keep a live writer's tmp file fresh
// (os.Chtimes) so sibling runs' age-gated litter cleanup never
// mistakes an open shard for a dead run's leftovers.
func (w *Writer) TmpPath() string { return w.tmp }

// Len returns the number of sealed records.
func (w *Writer) Len() int { return len(w.ents) }

// writeRaw writes b to the shard and advances the logical offset. An
// injected fault at SiteWrite either poisons the writer with a sticky
// error (surfaced by Finish/Close, undone by Rollback's truncate) or —
// in crash mode — panics with *failpoint.Crashed after persisting the
// torn prefix, leaving the tmp file exactly as a dying process would.
func (w *Writer) writeRaw(b []byte) {
	if act := failpoint.Eval(SiteWrite, len(b)); !act.Pass() {
		if act.Tear {
			n := act.TearAt
			if n > len(b) {
				n = len(b)
			}
			if n > 0 {
				w.bw.Write(b[:n])
				w.off += int64(n)
			}
			_ = w.bw.Flush() // land the torn prefix so the damage is on disk
		}
		if act.Crash {
			_ = w.f.Close()
			panic(&failpoint.Crashed{Site: SiteWrite})
		}
		err := act.Err
		if err == nil {
			err = failpoint.ErrInjected
		}
		if w.werr == nil {
			w.werr = err
		}
		return
	}
	n, _ := w.bw.Write(b) // bufio defers errors to Flush; n is always len(b) until then
	w.off += int64(n)
}

// u32 appends v little-endian to the scratch buffer.
func u32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// u64 appends v little-endian to the scratch buffer.
func u64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// f64s appends the float vector little-endian to the scratch buffer.
func f64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math64bits(v))
	}
	return buf
}

// Begin opens the record for point index with the given parameter
// vector and returns its streaming writer. Exactly one record can be
// open at a time; it must be sealed with Finish (or undone with
// Rollback) before the next Begin or Close.
func (w *Writer) Begin(index uint64, params []float64) (*RecordWriter, error) {
	if w.state != writerOpen {
		return nil, errors.New("archive: writer is closed")
	}
	if w.werr != nil {
		return nil, fmt.Errorf("archive: %w", w.werr)
	}
	if w.rec != nil {
		return nil, fmt.Errorf("archive: record %d still open", w.rec.index)
	}
	rw := &RecordWriter{w: w, index: index, frameOff: w.off}
	w.buf = u32(w.buf[:0], recordMagic)
	w.buf = u32(w.buf, 0) // payload length, patched by Finish
	w.writeRaw(w.buf)
	rw.payloadOff = w.off
	w.buf = w.buf[:0]
	// POMARC2 records are self-describing: the leading codec byte lets
	// one archive (or one merge) mix record generations.
	w.buf = append(w.buf, w.codec.wireByte())
	w.buf = u64(w.buf, index)
	w.buf = u32(w.buf, uint32(len(params)))
	w.buf = f64s(w.buf, params)
	rw.write(w.buf)
	w.rec = rw
	return rw, nil
}

// Append writes a whole decoded record through the streaming path, so
// Append-ed and streamed records are byte-identical on disk.
func (w *Writer) Append(rec *Record) error {
	rw, err := w.Begin(rec.Index, rec.Params)
	if err != nil {
		return err
	}
	rw.Begin(rec.Width, rec.NSamples())
	for k := 0; k < rec.NSamples(); k++ {
		rw.Sample(rec.Ts[k], rec.Row(k))
	}
	if err := rw.Finish(rec.Metrics, rec.Trace); err != nil {
		_ = w.Rollback(rw)
		return err
	}
	return nil
}

// Rollback removes rec from the shard: the file is truncated back to
// the record's start and, if the record was already sealed, its index
// entry is dropped. Used by sweep workers to guarantee a failed point
// leaves no partial data behind.
func (w *Writer) Rollback(rec *RecordWriter) error {
	if w.state != writerOpen || rec == nil || rec.w != w {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := w.f.Truncate(rec.frameOff); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if _, err := w.f.Seek(rec.frameOff, 0); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	w.bw.Reset(w.f)
	w.off = rec.frameOff
	if rec.sealed {
		if n := len(w.ents); n > 0 && w.ents[n-1].index == rec.index {
			w.ents = w.ents[:n-1]
		}
	}
	if w.rec == rec {
		w.rec = nil
	}
	// The truncate removed whatever a poisoned write left behind, so a
	// sticky write error is healed here: the shard is byte-identical to
	// one that never saw the failed record, and the writer can go on.
	w.werr = nil
	rec.sealed = false
	rec.err = errors.New("archive: record rolled back")
	return nil
}

// Close seals the shard: footer index, fsync, the atomic rename that
// makes the shard visible to readers, and an fsync of the parent
// directory so the rename itself survives power loss — without that
// last step a "committed" shard can vanish when the directory's
// metadata never reaches disk. Closing with a record still open is an
// error (Rollback or Finish it first).
func (w *Writer) Close() error {
	if w.state != writerOpen {
		return errors.New("archive: writer is closed")
	}
	if w.rec != nil {
		return fmt.Errorf("archive: record %d still open", w.rec.index)
	}
	footerOff := w.off
	w.buf = u32(w.buf[:0], footerMagic)
	body := u32(nil, uint32(len(w.ents)))
	for _, e := range w.ents {
		body = u64(body, e.index)
		body = u64(body, uint64(e.off))
		body = u32(body, e.length)
	}
	w.buf = append(w.buf, body...)
	w.buf = u32(w.buf, crc32.Checksum(body, castagnoli))
	w.buf = u64(w.buf, uint64(footerOff))
	w.buf = u32(w.buf, trailerMagic)
	w.writeRaw(w.buf)
	if err := w.bw.Flush(); err != nil {
		w.fail()
		return fmt.Errorf("archive: %w", err)
	}
	if w.werr != nil {
		err := w.werr
		w.fail()
		return fmt.Errorf("archive: %w", err)
	}
	if act := failpoint.Eval(SiteSync, 0); !act.Pass() {
		if act.Crash {
			_ = w.f.Close()
			panic(&failpoint.Crashed{Site: SiteSync})
		}
		w.fail()
		return fmt.Errorf("archive: %w", act.Err)
	}
	if err := w.f.Sync(); err != nil {
		w.fail()
		return fmt.Errorf("archive: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.state = writerAborted
		_ = os.Remove(w.tmp)
		return fmt.Errorf("archive: %w", err)
	}
	if act := failpoint.Eval(SiteRename, 0); !act.Pass() {
		if act.Crash {
			panic(&failpoint.Crashed{Site: SiteRename})
		}
		w.state = writerAborted
		_ = os.Remove(w.tmp)
		return fmt.Errorf("archive: %w", act.Err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		w.state = writerAborted
		_ = os.Remove(w.tmp)
		return fmt.Errorf("archive: %w", err)
	}
	// The shard is committed from here on: even if the directory sync
	// fails, the renamed file must never be removed, so the writer is
	// marked closed before the durability step.
	w.state = writerClosed
	if act := failpoint.Eval(SiteSyncDir, 0); !act.Pass() {
		if act.Crash {
			panic(&failpoint.Crashed{Site: SiteSyncDir})
		}
		return fmt.Errorf("archive: syncing %s after commit: %w", w.dir, act.Err)
	}
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("archive: syncing %s after commit: %w", w.dir, err)
	}
	return nil
}

// syncDir fsyncs a directory, making renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// fail abandons the underlying file after a write error.
func (w *Writer) fail() {
	_ = w.f.Close()
	_ = os.Remove(w.tmp)
	w.state = writerAborted
}

// Abort discards the shard: the *.tmp file is removed and nothing
// becomes visible to readers. Safe to call after a failed Close.
func (w *Writer) Abort() error {
	if w.state != writerOpen {
		return nil
	}
	w.state = writerAborted
	_ = w.f.Close()
	if err := os.Remove(w.tmp); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// RecordWriter streams one record into its shard. Begin and Sample
// implement sim.Sink, so solver rows flow from the integrator's reused
// buffers straight to disk with no materialized trajectory; Finish
// seals the record with the summary metrics and optional trace. Errors
// during the sink callbacks (which cannot return one) are stashed and
// surfaced by Finish.
type RecordWriter struct {
	w          *Writer
	index      uint64
	frameOff   int64 // offset of the record magic
	payloadOff int64 // offset of the first payload byte
	crc        uint32

	width, nSamples, rows int
	dims                  bool
	sealed                bool
	err                   error
}

// Index returns the point index the record was opened with.
func (rw *RecordWriter) Index() uint64 { return rw.index }

// Sealed reports whether Finish completed.
func (rw *RecordWriter) Sealed() bool { return rw.sealed }

// write appends payload bytes, folding them into the record CRC.
func (rw *RecordWriter) write(b []byte) {
	rw.crc = crc32.Update(rw.crc, castagnoli, b)
	rw.w.writeRaw(b)
}

// Begin implements sim.Sink: it fixes the row dimensions. It must run
// before the first Sample and at most once per record.
func (rw *RecordWriter) Begin(n, nSamples int) {
	if rw.sealed || rw.err != nil {
		rw.stash(errors.New("archive: Begin on a finished record"))
		return
	}
	if rw.dims {
		rw.stash(errors.New("archive: Begin called twice"))
		return
	}
	if n < 0 || nSamples < 0 {
		rw.stash(fmt.Errorf("archive: negative record dimensions (%d, %d)", n, nSamples))
		return
	}
	rw.dims = true
	rw.width, rw.nSamples = n, nSamples
	w := rw.w
	// Pre-size the encode scratch from the announced dimensions so the
	// per-row Sample path never regrows a buffer mid-record: the shared
	// byte scratch is held at the worst-case row encoding (uvarint needs
	// at most MaxVarintLen64 bytes per column, raw rows need 8), and the
	// delta predictor columns are (re)sized once per record.
	cols := 1 + n
	if need := cols * binary.MaxVarintLen64; cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	if w.codec == CodecDelta && nSamples > 0 {
		if cap(w.prev) < cols {
			w.prev = make([]uint64, cols)
			w.prev2 = make([]uint64, cols)
		}
		w.prev = w.prev[:cols]
		w.prev2 = w.prev2[:cols]
	}
	w.buf = u32(w.buf[:0], uint32(n))
	w.buf = u32(w.buf, uint32(nSamples))
	rw.write(w.buf)
}

// Sample implements sim.Sink: it appends one row. y is not retained.
func (rw *RecordWriter) Sample(t float64, y []float64) {
	if rw.err != nil {
		return
	}
	switch {
	case !rw.dims:
		rw.stash(errors.New("archive: Sample before Begin"))
	case len(y) != rw.width:
		rw.stash(fmt.Errorf("archive: row width %d, want %d", len(y), rw.width))
	case rw.rows >= rw.nSamples:
		rw.stash(fmt.Errorf("archive: more than %d sample rows", rw.nSamples))
	default:
		row := rw.rows
		rw.rows++
		w := rw.w
		if w.codec == CodecDelta {
			w.buf = appendDeltaRow(w.buf[:0], row, math64bits(t), y, w.prev, w.prev2)
		} else {
			w.buf = u64(w.buf[:0], math64bits(t))
			w.buf = f64s(w.buf, y)
		}
		rw.write(w.buf)
	}
}

// stash records the first sink-side error for Finish to report.
func (rw *RecordWriter) stash(err error) {
	if rw.err == nil {
		rw.err = err
	}
}

// Finish seals the record with the summary metrics and optional trace,
// patches the payload length, and adds the record to the shard index.
// The record stays invisible to readers until the shard's Close.
func (rw *RecordWriter) Finish(metrics []float64, tr *trace.Trace) error {
	w := rw.w
	if rw.sealed {
		return errors.New("archive: record already finished")
	}
	if w.rec != rw {
		return errors.New("archive: record is not open")
	}
	if rw.err == nil && !rw.dims {
		// A record without samples is legal: write the empty dimension
		// section through the normal path so the payload stays decodable.
		rw.Begin(0, 0)
	}
	if rw.err == nil && rw.rows != rw.nSamples {
		rw.stash(fmt.Errorf("archive: got %d of %d sample rows", rw.rows, rw.nSamples))
	}
	if rw.err != nil {
		return rw.err
	}
	w.buf = u32(w.buf[:0], uint32(len(metrics)))
	w.buf = f64s(w.buf, metrics)
	if tr == nil {
		w.buf = u32(w.buf, 0)
	} else {
		tb := tr.AppendBinary(nil)
		if int64(len(tb)) > math.MaxUint32 {
			rw.stash(fmt.Errorf("archive: embedded trace of %d bytes exceeds the format limit", len(tb)))
			return rw.err
		}
		w.buf = u32(w.buf, uint32(len(tb)))
		w.buf = append(w.buf, tb...)
	}
	rw.write(w.buf)
	payloadLen := w.off - rw.payloadOff
	if payloadLen > math.MaxUint32 {
		// The 4-byte length prefix cannot frame this record; report it
		// instead of writing a wrapped length that every read rejects.
		rw.stash(fmt.Errorf("archive: record payload of %d bytes exceeds the 4 GiB format limit", payloadLen))
		return rw.err
	}
	w.buf = u32(w.buf[:0], rw.crc)
	w.writeRaw(w.buf)
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if w.werr != nil {
		// A write anywhere in this record was poisoned; report it so
		// the caller rolls the record back (which truncates the damage
		// away and heals the writer).
		return fmt.Errorf("archive: %w", w.werr)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(payloadLen))
	if _, err := w.f.WriteAt(lenBuf[:], rw.frameOff+4); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	w.ents = append(w.ents, indexEntry{index: rw.index, off: rw.frameOff, length: uint32(payloadLen)})
	w.rec = nil
	rw.sealed = true
	return nil
}
