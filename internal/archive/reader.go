package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/trace"
)

// Shard is one completed shard file opened for reading. Reads go
// through ReadAt, so a Shard is safe for concurrent readers.
type Shard struct {
	// Path is the shard file path.
	Path    string
	f       *os.File
	size    int64
	version int // format generation from the header magic (1 or 2)
	ents    []indexEntry
}

// OpenShard opens and validates one shard file: header magic, trailer,
// and footer index CRC. Damaged shards (torn writes, truncation, bit
// rot) return an error wrapping ErrCorrupt — never a panic.
func OpenShard(path string) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	s := &Shard{Path: path, f: f}
	if err := s.loadIndex(); err != nil {
		_ = f.Close() // the index error is the one worth reporting
		return nil, err
	}
	return s, nil
}

// corrupt builds a shard-corruption error with context.
func (s *Shard) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, s.Path, fmt.Sprintf(format, args...))
}

// loadIndex parses the trailer and footer into the entry table.
func (s *Shard) loadIndex() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	s.size = fi.Size()
	if s.size < headerLen+trailerLen+4+4+4 {
		return s.corrupt("file too short (%d bytes)", s.size)
	}
	var head [headerLen]byte
	if _, err := s.f.ReadAt(head[:], 0); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	switch string(head[:]) {
	case shardMagicV1:
		s.version = 1
	case shardMagicV2:
		s.version = 2
	default:
		return s.corrupt("bad header magic")
	}
	var tail [trailerLen]byte
	if _, err := s.f.ReadAt(tail[:], s.size-trailerLen); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[8:]) != trailerMagic {
		return s.corrupt("bad trailer magic (torn write?)")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	// Footer: magic u32 + count u32 + entries + crc u32.
	if footerOff < headerLen || footerOff > s.size-trailerLen-12 {
		return s.corrupt("footer offset %d out of range", footerOff)
	}
	footer := make([]byte, s.size-trailerLen-footerOff)
	if _, err := s.f.ReadAt(footer, footerOff); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if binary.LittleEndian.Uint32(footer[:4]) != footerMagic {
		return s.corrupt("bad footer magic")
	}
	body := footer[4 : len(footer)-4]
	wantCRC := binary.LittleEndian.Uint32(footer[len(footer)-4:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return s.corrupt("footer checksum mismatch")
	}
	count := int(binary.LittleEndian.Uint32(body[:4]))
	if count < 0 || len(body) != 4+count*entryLen {
		return s.corrupt("footer entry count %d does not match footer size", count)
	}
	s.ents = make([]indexEntry, count)
	for k := 0; k < count; k++ {
		e := body[4+k*entryLen:]
		ent := indexEntry{
			index:  binary.LittleEndian.Uint64(e[:8]),
			off:    int64(binary.LittleEndian.Uint64(e[8:16])),
			length: binary.LittleEndian.Uint32(e[16:20]),
		}
		// The record frame [magic+len | payload | crc] must fit between
		// the header and the footer.
		end := ent.off + 8 + int64(ent.length) + 4
		if ent.off < headerLen || end > footerOff {
			return s.corrupt("record %d at offset %d overruns the data area", ent.index, ent.off)
		}
		s.ents[k] = ent
	}
	return nil
}

// Close releases the shard's file handle.
func (s *Shard) Close() error { return s.f.Close() }

// Len returns the number of records in the shard.
func (s *Shard) Len() int { return len(s.ents) }

// Version returns the shard's format generation: 1 for POMARC1
// (raw payloads), 2 for POMARC2 (codec byte per record).
func (s *Shard) Version() int { return s.version }

// Size returns the shard file size in bytes.
func (s *Shard) Size() int64 { return s.size }

// Indices returns the point indices stored in the shard, in write order.
func (s *Shard) Indices() []uint64 {
	out := make([]uint64, len(s.ents))
	for k, e := range s.ents {
		out[k] = e.index
	}
	return out
}

// ReadRaw returns the k-th record's CRC-verified payload bytes exactly
// as stored: for POMARC2 that includes the leading codec byte and any
// delta compression. Two same-codec archives hold bitwise-identical
// data exactly when their ReadRaw payloads match; for comparisons that
// must span codecs or format generations use ReadCanonical.
func (s *Shard) ReadRaw(k int) ([]byte, error) {
	if k < 0 || k >= len(s.ents) {
		return nil, fmt.Errorf("archive: record %d out of range [0, %d)", k, len(s.ents))
	}
	e := s.ents[k]
	frame := make([]byte, 8+int(e.length)+4)
	if _, err := s.f.ReadAt(frame, e.off); err != nil {
		return nil, s.corrupt("record %d: %v", e.index, err)
	}
	if binary.LittleEndian.Uint32(frame[:4]) != recordMagic {
		return nil, s.corrupt("record %d: bad record magic", e.index)
	}
	if binary.LittleEndian.Uint32(frame[4:8]) != e.length {
		return nil, s.corrupt("record %d: frame length disagrees with index", e.index)
	}
	payload := frame[8 : 8+e.length]
	wantCRC := binary.LittleEndian.Uint32(frame[8+e.length:])
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return nil, s.corrupt("record %d: payload checksum mismatch", e.index)
	}
	return payload, nil
}

// Read decodes the k-th record of the shard.
func (s *Shard) Read(k int) (*Record, error) {
	payload, err := s.ReadRaw(k)
	if err != nil {
		return nil, err
	}
	rec, err := decodePayload(payload, s.version)
	if err != nil {
		return nil, s.corrupt("record %d: %v", s.ents[k].index, err)
	}
	return rec, nil
}

// ReadCanonical returns the k-th record's payload re-encoded in the
// canonical raw (POMARC1) layout, independent of the codec or format
// generation it was stored with. Two archives hold bitwise-identical
// data exactly when their ReadCanonical payloads match — even when one
// is delta-compressed and the other raw or legacy.
func (s *Shard) ReadCanonical(k int) ([]byte, error) {
	payload, err := s.ReadRaw(k)
	if err != nil {
		return nil, err
	}
	if s.version == 1 {
		return payload, nil
	}
	if len(payload) == 0 {
		return nil, s.corrupt("record %d: empty payload", s.ents[k].index)
	}
	if payload[0] == codecByteRaw {
		return payload[1:], nil
	}
	rec, err := decodePayload(payload, s.version)
	if err != nil {
		return nil, s.corrupt("record %d: %v", s.ents[k].index, err)
	}
	return appendRawPayload(nil, rec), nil
}

// RecordCodec returns the codec the k-th record was stored with.
// POMARC1 records report CodecRaw.
func (s *Shard) RecordCodec(k int) (Codec, error) {
	if k < 0 || k >= len(s.ents) {
		return CodecDefault, fmt.Errorf("archive: record %d out of range [0, %d)", k, len(s.ents))
	}
	if s.version == 1 {
		return CodecRaw, nil
	}
	e := s.ents[k]
	if e.length == 0 {
		return CodecDefault, s.corrupt("record %d: empty payload", e.index)
	}
	var b [1]byte
	if _, err := s.f.ReadAt(b[:], e.off+8); err != nil {
		return CodecDefault, s.corrupt("record %d: %v", e.index, err)
	}
	c, ok := codecOfByte(b[0])
	if !ok {
		return CodecDefault, s.corrupt("record %d: unknown codec byte 0x%02x", e.index, b[0])
	}
	return c, nil
}

// payloadReader is a bounds-checked little-endian decoder; the first
// out-of-range read poisons it so decodePayload stays panic-free on
// corrupt input.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("truncated payload reading %s at offset %d", what, p.off)
	}
}

func (p *payloadReader) u32(what string) uint32 {
	if p.err != nil {
		return 0
	}
	if p.off+4 > len(p.b) {
		p.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u64(what string) uint64 {
	if p.err != nil {
		return 0
	}
	if p.off+8 > len(p.b) {
		p.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

// f64s decodes count floats, guarding the allocation against corrupt
// counts that exceed the remaining payload (the division keeps the
// check overflow-free for any u32-derived count).
func (p *payloadReader) f64s(count int, what string) []float64 {
	if p.err != nil {
		return nil
	}
	if count < 0 || count > (len(p.b)-p.off)/8 {
		p.fail(what)
		return nil
	}
	if count == 0 {
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
		p.off += 8
	}
	return out
}

// decodePayload decodes one record payload (the inverse of the
// RecordWriter stream) according to the shard format generation:
// POMARC1 payloads are raw, POMARC2 payloads lead with a codec byte.
func decodePayload(b []byte, version int) (*Record, error) {
	if version == 1 {
		return decodeRawPayload(b)
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("empty payload")
	}
	switch b[0] {
	case codecByteRaw:
		return decodeRawPayload(b[1:])
	case codecByteDelta:
		return decodeDeltaPayload(b[1:])
	}
	return nil, fmt.Errorf("unknown codec byte 0x%02x", b[0])
}

// decodeHead reads the sections ahead of the row data (index, params,
// dimensions), which both codecs store raw.
func decodeHead(p *payloadReader, rec *Record) (width, nSamples int) {
	rec.Index = p.u64("index")
	rec.Params = p.f64s(int(p.u32("param count")), "params")
	width = int(p.u32("width"))
	nSamples = int(p.u32("sample count"))
	return width, nSamples
}

// decodeTail reads the metric and trace sections, which both codecs
// store raw, and verifies the payload is fully consumed.
func decodeTail(p *payloadReader, rec *Record) error {
	b := p.b
	rec.Metrics = p.f64s(int(p.u32("metric count")), "metrics")
	traceLen := int(p.u32("trace length"))
	if p.err == nil && traceLen > 0 {
		if p.off+traceLen > len(b) {
			p.fail("trace")
		} else {
			tr, err := trace.DecodeBinary(b[p.off : p.off+traceLen])
			if err != nil {
				return fmt.Errorf("embedded trace: %w", err)
			}
			rec.Trace = tr
			p.off += traceLen
		}
	}
	if p.err != nil {
		return p.err
	}
	if p.off != len(b) {
		return fmt.Errorf("payload has %d trailing bytes", len(b)-p.off)
	}
	return nil
}

// decodeRawPayload decodes a CodecRaw (or POMARC1) payload body.
func decodeRawPayload(b []byte) (*Record, error) {
	p := &payloadReader{b: b}
	rec := &Record{}
	width, nSamples := decodeHead(p, rec)
	if p.err == nil {
		// Division-based bounds check: a crafted (width, nSamples) pair
		// must not overflow into a passing product and reach make().
		rem := len(b) - p.off
		rowFloats := 1 + width
		if width < 0 || nSamples < 0 ||
			(nSamples > 0 && (rowFloats > rem/8 || nSamples > rem/(8*rowFloats))) {
			p.fail("sample rows")
		}
	}
	if p.err == nil {
		rec.Width = width
		if nSamples > 0 {
			rec.Ts = make([]float64, nSamples)
			rec.Samples = make([]float64, nSamples*width)
			for k := 0; k < nSamples; k++ {
				rec.Ts[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[p.off:]))
				p.off += 8
				for i := 0; i < width; i++ {
					rec.Samples[k*width+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[p.off:]))
					p.off += 8
				}
			}
		}
	}
	if err := decodeTail(p, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeDeltaPayload decodes a CodecDelta payload body.
func decodeDeltaPayload(b []byte) (*Record, error) {
	p := &payloadReader{b: b}
	rec := &Record{}
	width, nSamples := decodeHead(p, rec)
	if p.err == nil {
		// Bounds before allocation: row 0 is raw (8 bytes per column)
		// and every later row needs at least one varint byte per column,
		// so a crafted (width, nSamples) pair fails here, overflow-free,
		// instead of reaching make(). cols ≤ rem/8 keeps cols*8 ≤ rem,
		// so the second division's numerator cannot go negative.
		rem := len(b) - p.off
		cols := 1 + width
		if width < 0 || nSamples < 0 ||
			(nSamples > 0 && (cols > rem/8 || nSamples-1 > (rem-cols*8)/cols)) {
			p.fail("sample rows")
		}
	}
	if p.err == nil {
		rec.Width = width
		if nSamples > 0 {
			rec.Ts = make([]float64, nSamples)
			rec.Samples = make([]float64, nSamples*width)
			off, err := decodeDeltaRows(b, p.off, rec, nSamples, width)
			if err != nil {
				return nil, err
			}
			p.off = off
		}
	}
	if err := decodeTail(p, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// recordLoc addresses one record inside an open Archive.
type recordLoc struct {
	shard int
	slot  int
}

// Archive is a directory of completed shards opened for reading, with a
// point-index lookup spanning all of them.
type Archive struct {
	shards []*Shard
	locs   map[uint64]recordLoc
}

// OpenDir opens every completed shard in dir. In-progress *.tmp files
// are ignored (they are crash litter by construction); a damaged shard
// or a point index appearing in two shards is an error.
func OpenDir(dir string) (*Archive, error) {
	names, err := filepath.Glob(ShardPattern(dir))
	if err != nil {
		return nil, fmt.Errorf("archive: scanning %s: %w", dir, err)
	}
	sort.Strings(names)
	a := &Archive{locs: make(map[uint64]recordLoc)}
	for _, name := range names {
		s, err := OpenShard(name)
		if err != nil {
			_ = a.Close() // the open error is the one worth reporting
			return nil, err
		}
		a.shards = append(a.shards, s)
		si := len(a.shards) - 1
		for slot, e := range s.ents {
			if prev, dup := a.locs[e.index]; dup {
				_ = a.Close() // the corruption error is the one worth reporting
				return nil, fmt.Errorf("%w: point %d appears in both %s and %s",
					ErrCorrupt, e.index, a.shards[prev.shard].Path, name)
			}
			a.locs[e.index] = recordLoc{shard: si, slot: slot}
		}
	}
	return a, nil
}

// Close releases all shard handles.
func (a *Archive) Close() error {
	var first error
	for _, s := range a.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shards returns the opened shards (do not close them individually).
func (a *Archive) Shards() []*Shard { return a.shards }

// Len returns the total number of archived points.
func (a *Archive) Len() int { return len(a.locs) }

// Has reports whether point index is archived.
func (a *Archive) Has(index uint64) bool {
	_, ok := a.locs[index]
	return ok
}

// Indices returns all archived point indices in ascending order.
func (a *Archive) Indices() []uint64 {
	out := make([]uint64, 0, len(a.locs))
	for idx := range a.locs {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Read decodes the record of point index.
func (a *Archive) Read(index uint64) (*Record, error) {
	loc, ok := a.locs[index]
	if !ok {
		return nil, fmt.Errorf("archive: point %d not archived", index)
	}
	return a.shards[loc.shard].Read(loc.slot)
}

// ReadRaw returns the CRC-verified payload bytes of point index (see
// Shard.ReadRaw).
func (a *Archive) ReadRaw(index uint64) ([]byte, error) {
	loc, ok := a.locs[index]
	if !ok {
		return nil, fmt.Errorf("archive: point %d not archived", index)
	}
	return a.shards[loc.shard].ReadRaw(loc.slot)
}

// ReadCanonical returns the canonical (codec-independent) payload bytes
// of point index (see Shard.ReadCanonical).
func (a *Archive) ReadCanonical(index uint64) ([]byte, error) {
	loc, ok := a.locs[index]
	if !ok {
		return nil, fmt.Errorf("archive: point %d not archived", index)
	}
	return a.shards[loc.shard].ReadCanonical(loc.slot)
}

// Iter streams every archived record to fn in ascending point order,
// stopping at the first error.
func (a *Archive) Iter(fn func(*Record) error) error {
	for _, idx := range a.Indices() {
		rec, err := a.Read(idx)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}
