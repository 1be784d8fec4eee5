package archive

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodePayload throws arbitrary bytes at the record decoder for
// both format generations. The decoder must classify every input as
// either a record or an error — it must never panic, and it must never
// allocate absurdly (the dimension bounds checks run before any make).
func FuzzDecodePayload(f *testing.F) {
	rec := specialRecord(7)
	f.Add(appendRawPayload(nil, rec))
	f.Add(append([]byte{codecByteRaw}, appendRawPayload(nil, rec)...))
	f.Add(encodeDeltaFuzzSeed(rec))
	f.Add([]byte{})
	f.Add([]byte{codecByteDelta})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, version := range []int{1, 2} {
			if _, err := decodePayload(b, version); err != nil {
				continue // malformed input rejected, as it should be
			}
		}
	})
}

// encodeDeltaFuzzSeed builds a well-formed CodecDelta payload for rec,
// reusing the writer's own row encoder.
func encodeDeltaFuzzSeed(rec *Record) []byte {
	buf := []byte{codecByteDelta}
	buf = u64(buf, rec.Index)
	buf = u32(buf, uint32(len(rec.Params)))
	buf = f64s(buf, rec.Params)
	buf = u32(buf, uint32(rec.Width))
	buf = u32(buf, uint32(rec.NSamples()))
	buf = append(buf, encodeDeltaRows(rec)...)
	buf = u32(buf, uint32(len(rec.Metrics)))
	buf = f64s(buf, rec.Metrics)
	return u32(buf, 0)
}

// FuzzDeltaRoundTrip drives the delta row codec with fuzz-chosen bit
// patterns — any float64 including NaN payloads, ±Inf, and subnormals —
// and pins that decode(encode(rows)) reproduces the exact bits.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(uint8(3), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, w, n uint8, raw []byte) {
		width := int(w%8) + 1
		nSamples := int(n%32) + 1
		// Expand the fuzz bytes into row values: each value takes its
		// bits from an 8-byte window of raw (cycled), so the corpus
		// reaches every float64 class.
		bitsAt := func(j int) uint64 {
			if len(raw) == 0 {
				return uint64(j) * 0x9E3779B97F4A7C15
			}
			var b [8]byte
			for i := range b {
				b[i] = raw[(j*8+i)%len(raw)]
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		ts := make([]float64, nSamples)
		samples := make([]float64, nSamples*width)
		for k := 0; k < nSamples; k++ {
			ts[k] = math.Float64frombits(bitsAt(k * (width + 1)))
			for i := 0; i < width; i++ {
				samples[k*width+i] = math.Float64frombits(bitsAt(k*(width+1) + 1 + i))
			}
		}

		cols := 1 + width
		prev := make([]uint64, cols)
		prev2 := make([]uint64, cols)
		var buf []byte
		for k := 0; k < nSamples; k++ {
			buf = appendDeltaRow(buf, k, math.Float64bits(ts[k]), samples[k*width:(k+1)*width], prev, prev2)
		}

		dec := &Record{
			Ts:      make([]float64, nSamples),
			Samples: make([]float64, nSamples*width),
			Width:   width,
		}
		consumed, err := decodeDeltaRows(buf, 0, dec, nSamples, width)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		if consumed != len(buf) {
			t.Fatalf("decoded %d of %d encoded bytes", consumed, len(buf))
		}
		for k := 0; k < nSamples; k++ {
			if math.Float64bits(dec.Ts[k]) != math.Float64bits(ts[k]) {
				t.Fatalf("row %d: time bits changed through round trip", k)
			}
			for i := 0; i < width; i++ {
				if math.Float64bits(dec.Samples[k*width+i]) != math.Float64bits(samples[k*width+i]) {
					t.Fatalf("row %d col %d: %x -> %x", k, i,
						math.Float64bits(samples[k*width+i]), math.Float64bits(dec.Samples[k*width+i]))
				}
			}
		}
	})
}

// TestFuzzSeedsRoundTrip runs the seed corpus of FuzzDecodePayload as a
// plain test, pinning that a hand-assembled delta payload decodes to
// the record it encodes (guards the seed builder itself).
func TestFuzzSeedsRoundTrip(t *testing.T) {
	rec := specialRecord(7)
	got, err := decodePayload(encodeDeltaFuzzSeed(rec), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, rec) {
		t.Fatalf("delta fuzz seed decoded to a different record")
	}
	canon, err := decodePayload(appendRawPayload(nil, rec), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(canon, rec) {
		t.Fatalf("raw fuzz seed decoded to a different record")
	}
	if !bytes.Equal(appendRawPayload(nil, got), appendRawPayload(nil, canon)) {
		t.Fatalf("canonical bytes differ between codec paths")
	}
}
