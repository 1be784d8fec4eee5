// Record codecs for the POMARC2 shard format.
//
// POMARC2 keeps POMARC1's framing (header · CRC'd record frames ·
// footer index · trailer) and prepends one codec byte to every record
// payload, so a single archive — and a single merge — can mix record
// generations. Two codecs exist:
//
//   - CodecRaw: the POMARC1 payload byte-for-byte (floats as raw
//     IEEE-754 bits, little-endian).
//   - CodecDelta: params/metrics/trace stay raw; the sample-row section
//     is column-delta compressed. Row 0 is stored raw; every later
//     value is XOR'd against a per-column prediction of its IEEE-754
//     bits and the XOR packed as a uvarint (the Gorilla/TSDB idiom:
//     neighbouring samples of a smooth trajectory share sign, exponent,
//     and high mantissa bits, so the XOR is small and the varint drops
//     the leading zero bytes).
//
// The prediction is second-order: pred = prev + (prev − prev2),
// evaluated in float64. Phase trajectories grow linearly in t, so the
// linear extrapolation removes the whole predictable component: on the
// megasweep corpus it cuts the mean row cost from 7.2 bytes/value
// (first-order prev-bits XOR) to 4.8, and perfectly gridded columns
// (the timestamps) collapse to one byte/value. What remains — the low
// ~30 mantissa bits — is genuine per-sample solver signal that no
// lossless code can remove; PERFORMANCE.md ("Archive compression")
// quantifies the resulting on-disk ratios. Every operation involved is
// correctly rounded per IEEE-754, so encode and decode reproduce the
// identical prediction on any conforming platform and the round trip
// is bitwise-exact — including NaN payloads and ±Inf, which bypass the
// float arithmetic entirely (see predictBits).
//
// Decoding (decodeDeltaRows) walks the rows through slice views of the
// output: the time column's varint heads each row, the state columns
// follow, and each prediction reads the two rows already decoded in
// place, so the decoder owns no scratch. Varints of up to 8 bytes,
// nearly every value a sweep stores, are read a word at a time
// (uvarint); the rest go through binary.Uvarint. Either way the result
// is binary.Uvarint's, so the writer's binary.AppendUvarint bytes
// decode exactly as they always have.
package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Codec selects how record payloads are encoded inside a shard.
// The zero value means "writer default" (CodecDelta), so zero-valued
// configs — sweep.ArchiveRun, dsweep.Config — get compression without
// opting in.
type Codec uint8

const (
	// CodecDefault resolves to the writer default, CodecDelta.
	CodecDefault Codec = iota
	// CodecRaw stores floats as raw IEEE-754 bits (the POMARC1 layout).
	CodecRaw
	// CodecDelta delta-compresses the sample rows (see package comment).
	CodecDelta
)

// On-disk codec bytes (the first payload byte of every POMARC2 record).
const (
	codecByteRaw   = 0x00
	codecByteDelta = 0x01
)

// resolve maps CodecDefault to the concrete writer default.
func (c Codec) resolve() Codec {
	if c == CodecDefault {
		return CodecDelta
	}
	return c
}

// String returns the flag-friendly name ("raw", "delta").
func (c Codec) String() string {
	switch c.resolve() {
	case CodecRaw:
		return "raw"
	default:
		return "delta"
	}
}

// ParseCodec parses a codec name as written by Codec.String. The empty
// string parses to CodecDefault.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "":
		return CodecDefault, nil
	case "raw":
		return CodecRaw, nil
	case "delta":
		return CodecDelta, nil
	}
	return CodecDefault, fmt.Errorf("archive: unknown codec %q (want raw or delta)", s)
}

// wireByte returns the on-disk codec byte.
func (c Codec) wireByte() byte {
	if c.resolve() == CodecRaw {
		return codecByteRaw
	}
	return codecByteDelta
}

// codecOfByte maps an on-disk codec byte back to its Codec.
func codecOfByte(b byte) (Codec, bool) {
	switch b {
	case codecByteRaw:
		return CodecRaw, true
	case codecByteDelta:
		return CodecDelta, true
	}
	return CodecDefault, false
}

// expMask is the float64 exponent field; a value with all exponent bits
// set is an Inf or NaN.
const expMask = 0x7FF0000000000000

// predictBits extrapolates a column's next value as prev + (prev −
// prev2) in float64 and returns its IEEE-754 bits. Both operations are
// correctly rounded per IEEE-754, so the prediction is identical on
// every conforming platform; two finite inputs can overflow to ±Inf but
// never produce a NaN. When either input is non-finite the arithmetic
// could manufacture NaN bit patterns the standard leaves to the
// platform, so the predictor falls back to the previous value's bits —
// deterministic for every input, and exactly what a repeated NaN/Inf
// column wants (the XOR collapses to zero).
func predictBits(prev, prev2 uint64) uint64 {
	if prev&expMask == expMask || prev2&expMask == expMask {
		return prev
	}
	a := math.Float64frombits(prev)
	b := math.Float64frombits(prev2)
	return math.Float64bits(a + (a - b))
}

// colPred returns the prediction for row `row` (≥ 1) of one column
// given the bits of the two preceding rows. Row 1 has no second
// predecessor, so it predicts the previous bits directly (a first-order
// XOR).
func colPred(row int, prev, prev2 uint64) uint64 {
	if row == 1 {
		return prev
	}
	return predictBits(prev, prev2)
}

// appendDeltaRow appends the CodecDelta encoding of one sample row
// (time column plus len(y) state columns) to buf and returns the
// extended slice. row is the 0-based row index; prev and prev2 hold
// each column's previous and second-previous IEEE-754 bits (prev[0] is
// the time column) and are updated in place. Row 0 is stored as raw
// little-endian bits — it is the seed of every column's prediction.
func appendDeltaRow(buf []byte, row int, tBits uint64, y []float64, prev, prev2 []uint64) []byte {
	if row == 0 {
		buf = binary.LittleEndian.AppendUint64(buf, tBits)
		prev[0] = tBits
		for i, v := range y {
			b := math.Float64bits(v)
			buf = binary.LittleEndian.AppendUint64(buf, b)
			prev[i+1] = b
		}
		return buf
	}
	buf = binary.AppendUvarint(buf, tBits^colPred(row, prev[0], prev2[0]))
	prev2[0], prev[0] = prev[0], tBits
	for i, v := range y {
		b := math.Float64bits(v)
		buf = binary.AppendUvarint(buf, b^colPred(row, prev[i+1], prev2[i+1]))
		prev2[i+1], prev[i+1] = prev[i+1], b
	}
	return buf
}

// decodeDeltaRows decodes the CodecDelta row section that starts at
// b[off:] into rec.Ts/rec.Samples (already sized to nSamples×width) and
// returns the offset just past it. Offsets in errors count from the
// start of b, as payloadReader's do. The predictor state is read back
// from the rows already decoded, so decoding needs no scratch beyond
// the output itself. Malformed input (truncated rows, overlong
// varints) returns an error, never a panic.
func decodeDeltaRows(b []byte, off int, rec *Record, nSamples, width int) (int, error) {
	cols := 1 + width
	if len(b)-off < cols*8 {
		return 0, fmt.Errorf("truncated payload reading sample row 0 at offset %d", off)
	}
	ts, samples := rec.Ts[:nSamples], rec.Samples[:nSamples*width]
	ts[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	for i := range samples[:width] {
		samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for k := 1; k < nSamples; k++ {
		p1 := samples[(k-1)*width : k*width]
		row := samples[k*width : (k+1)*width][:len(p1)]
		d, n := uvarint(b, off)
		if n <= 0 {
			return 0, fmt.Errorf("bad varint in sample row %d at offset %d", k, off)
		}
		off += n
		if k == 1 {
			ts[1] = math.Float64frombits(math.Float64bits(ts[0]) ^ d)
			for c, v := range p1 {
				d, n := uvarint(b, off)
				if n <= 0 {
					return 0, fmt.Errorf("bad varint in sample row %d at offset %d", k, off)
				}
				off += n
				row[c] = math.Float64frombits(math.Float64bits(v) ^ d)
			}
			continue
		}
		ts[k] = math.Float64frombits(predictBits(math.Float64bits(ts[k-1]), math.Float64bits(ts[k-2])) ^ d)
		p2 := samples[(k-2)*width : (k-1)*width][:len(p1)]
		for c, v := range p1 {
			d, n := uvarint(b, off)
			if n <= 0 {
				return 0, fmt.Errorf("bad varint in sample row %d at offset %d", k, off)
			}
			off += n
			row[c] = math.Float64frombits(predictBits(math.Float64bits(v), math.Float64bits(p2[c])) ^ d)
		}
	}
	return off, nil
}

// uvarint decodes the uvarint at b[off:] with binary.Uvarint's exact
// results: the value and its length, or a length ≤ 0 for truncated or
// overflowing input. With 8 bytes in reach it decodes a word at a
// time: the lowest clear high bit marks the last byte, the bytes below
// it keep their 7 payload bits, and three mask/shift/or steps pack the
// groups 7→14→28→56 bits wide. Longer values (9 or 10 bytes, 0.03% of
// a megasweep archive's values), malformed ones and the buffer's last
// 7 bytes take binary.Uvarint.
func uvarint(b []byte, off int) (uint64, int) {
	if off <= len(b)-8 {
		w := binary.LittleEndian.Uint64(b[off:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			x := w & (stop ^ (stop - 1)) & 0x7F7F7F7F7F7F7F7F
			x = x&0x007F007F007F007F | x>>1&0x3F803F803F803F80
			x = x&0x00003FFF00003FFF | x>>2&0x0FFFC0000FFFC000
			x = x&0x000000000FFFFFFF | x>>4&0x00FFFFFFF0000000
			return x, (bits.TrailingZeros64(stop) + 1) >> 3
		}
	}
	return binary.Uvarint(b[off:])
}

// appendRawPayload appends rec's canonical (CodecRaw, POMARC1) payload
// encoding to buf. It mirrors the Writer's streaming raw path
// byte-for-byte, so canonical bytes compare equal exactly when the
// decoded records are bitwise-identical — the codec-independent
// equality used by dsweep.Equal and pomread -compare.
func appendRawPayload(buf []byte, rec *Record) []byte {
	buf = u64(buf, rec.Index)
	buf = u32(buf, uint32(len(rec.Params)))
	buf = f64s(buf, rec.Params)
	buf = u32(buf, uint32(rec.Width))
	buf = u32(buf, uint32(rec.NSamples()))
	for k := 0; k < rec.NSamples(); k++ {
		buf = u64(buf, math64bits(rec.Ts[k]))
		buf = f64s(buf, rec.Row(k))
	}
	buf = u32(buf, uint32(len(rec.Metrics)))
	buf = f64s(buf, rec.Metrics)
	if rec.Trace == nil {
		return u32(buf, 0)
	}
	tb := rec.Trace.AppendBinary(nil)
	buf = u32(buf, uint32(len(tb)))
	return append(buf, tb...)
}
