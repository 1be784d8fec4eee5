package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The reference below is decodeDeltaRows as it stood before the
// word-at-a-time varint decoder — one binary.Uvarint per value, with
// the column prediction re-derived per value — verbatim apart from its
// name. TestDecodeDeltaRowsMatchesReference and
// FuzzDecodeDeltaRowsReference pin the production decoder to it: the
// same bits, the same bytes consumed, and an error exactly where it
// errs.
func refDecodeDeltaRows(b []byte, rec *Record, nSamples, width int) (int, error) {
	cols := 1 + width
	if len(b) < cols*8 {
		return 0, fmt.Errorf("truncated payload reading sample row 0")
	}
	off := 0
	rec.Ts[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	for i := 0; i < width; i++ {
		rec.Samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for k := 1; k < nSamples; k++ {
		for c := 0; c < cols; c++ {
			delta, n := binary.Uvarint(b[off:])
			if n <= 0 {
				return 0, fmt.Errorf("bad varint in sample row %d at offset %d", k, off)
			}
			off += n
			var prev, prev2 uint64
			if c == 0 {
				prev = math.Float64bits(rec.Ts[k-1])
				if k >= 2 {
					prev2 = math.Float64bits(rec.Ts[k-2])
				}
			} else {
				prev = math.Float64bits(rec.Samples[(k-1)*width+c-1])
				if k >= 2 {
					prev2 = math.Float64bits(rec.Samples[(k-2)*width+c-1])
				}
			}
			cur := colPred(k, prev, prev2) ^ delta
			if c == 0 {
				rec.Ts[k] = math.Float64frombits(cur)
			} else {
				rec.Samples[k*width+c-1] = math.Float64frombits(cur)
			}
		}
	}
	return off, nil
}

// sweepRecord builds a sweep-shaped record: time on a uniform grid and
// phases that grow linearly in t, each with its own offset and a small
// noise term standing in for the solver's per-sample signal, so the
// second-order residuals span the varint lengths real sweeps produce.
func sweepRecord(rng *rand.Rand, index uint64, width, nSamples int) *Record {
	rec := &Record{Index: index, Width: width, Params: []float64{0.5, 1.5}}
	rec.Ts = make([]float64, nSamples)
	rec.Samples = make([]float64, nSamples*width)
	for k := range rec.Ts {
		t := float64(k) * 0.02
		rec.Ts[k] = t
		for i := 0; i < width; i++ {
			rec.Samples[k*width+i] = 2*math.Pi*t + 0.8*float64(i) + 1e-5*rng.NormFloat64()
		}
	}
	rec.Metrics = []float64{0.25, 3}
	return rec
}

// encodeDeltaRows returns rec's CodecDelta row section, built with the
// writer's own row encoder.
func encodeDeltaRows(rec *Record) []byte {
	cols := 1 + rec.Width
	prev := make([]uint64, cols)
	prev2 := make([]uint64, cols)
	var buf []byte
	for k := 0; k < rec.NSamples(); k++ {
		buf = appendDeltaRow(buf, k, math.Float64bits(rec.Ts[k]), rec.Row(k), prev, prev2)
	}
	return buf
}

// compareWithReference decodes b as a row section of the given shape
// with both decoders. Either both fail, or both succeed with identical
// bits and the same number of bytes consumed.
func compareWithReference(b []byte, width, nSamples int) error {
	newRec := func() *Record {
		return &Record{Width: width, Ts: make([]float64, nSamples), Samples: make([]float64, nSamples*width)}
	}
	want, got := newRec(), newRec()
	wantN, wantErr := refDecodeDeltaRows(b, want, nSamples, width)
	gotEnd, gotErr := decodeDeltaRows(b, 0, got, nSamples, width)
	if (wantErr != nil) != (gotErr != nil) {
		return fmt.Errorf("error mismatch: reference %v, decoder %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return nil
	}
	if gotEnd != wantN {
		return fmt.Errorf("consumed %d bytes, reference %d", gotEnd, wantN)
	}
	for k := range want.Ts {
		if math.Float64bits(got.Ts[k]) != math.Float64bits(want.Ts[k]) {
			return fmt.Errorf("row %d time: %#x, reference %#x", k,
				math.Float64bits(got.Ts[k]), math.Float64bits(want.Ts[k]))
		}
	}
	for i := range want.Samples {
		if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
			return fmt.Errorf("row %d col %d: %#x, reference %#x", i/width, i%width,
				math.Float64bits(got.Samples[i]), math.Float64bits(want.Samples[i]))
		}
	}
	return nil
}

// TestDecodeDeltaRowsMatchesReference pins decodeDeltaRows to the
// byte-loop reference on whole records, on every varint length at
// every distance from the end of the buffer (the word path needs 8
// bytes in reach), on non-canonical, overlong and overflowing
// encodings, and on truncation at every byte of the last two rows.
func TestDecodeDeltaRowsMatchesReference(t *testing.T) {
	check := func(name string, b []byte, width, nSamples int) {
		t.Helper()
		if err := compareWithReference(b, width, nSamples); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	rng := rand.New(rand.NewSource(18))
	sweep := sweepRecord(rng, 0, 8, 2001)
	special := specialRecord(1)
	for _, rec := range []*Record{sweep, special} {
		rows := encodeDeltaRows(rec)
		name := fmt.Sprintf("%dx%d", rec.Width, rec.NSamples())
		check(name, rows, rec.Width, rec.NSamples())
		// In a payload the metric and trace sections follow the rows.
		check(name+"+tail", append(rows[:len(rows):len(rows)], 0xFF, 0xFF, 0xFF, 0x80, 0, 0, 0, 0, 0, 0, 0), rec.Width, rec.NSamples())
		// Truncation at every byte of the last two rows must fail in
		// both decoders. Rows encode as a prefix of their successors,
		// so the first nSamples-2 rows alone give where those two start.
		m := rec.NSamples() - 2
		lastTwo := encodeDeltaRows(&Record{Width: rec.Width, Ts: rec.Ts[:m], Samples: rec.Samples[:m*rec.Width]})
		for end := len(rows) - 1; end >= len(lastTwo); end-- {
			dec := &Record{Ts: make([]float64, rec.NSamples()), Samples: make([]float64, len(rec.Samples))}
			if _, err := decodeDeltaRows(rows[:end], 0, dec, rec.NSamples(), rec.Width); err == nil {
				t.Errorf("%s cut at %d: truncated rows decoded without error", name, end)
			}
			check(fmt.Sprintf("%s cut at %d", name, end), rows[:end], rec.Width, rec.NSamples())
		}
	}

	// One width-1 row after the raw row 0: the varint under test sits
	// in the time column or the state column, followed by `tail` bytes
	// that all carry continuation bits.
	varintRows := func(v []byte, col, tail int) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-3))
		if col == 1 {
			b = append(b, 0x00)
		}
		b = append(b, v...)
		if col == 0 {
			b = append(b, 0x00)
		}
		for i := 0; i < tail; i++ {
			b = append(b, 0xFF)
		}
		return b
	}
	var encodings [][]byte
	for n := 1; n <= 10; n++ {
		lo := uint64(1) << (7 * (n - 1))
		hi := uint64(math.MaxUint64)
		if n < 10 {
			hi = uint64(1)<<(7*n) - 1
		}
		if n == 1 {
			lo = 0
		}
		for _, v := range []uint64{lo, hi, lo + rng.Uint64()%(hi-lo)} {
			e := binary.AppendUvarint(nil, v)
			if len(e) != n {
				t.Fatalf("uvarint %#x encodes in %d bytes, want %d", v, len(e), n)
			}
			encodings = append(encodings, e)
		}
		// Non-canonical: a value padded with 0x80 groups to n bytes
		// (0x80 0x00, 0xFF 0x80 0x00, ...), which binary.Uvarint accepts.
		if n >= 2 {
			pad := make([]byte, n)
			for i := range pad[:n-1] {
				pad[i] = 0x80
			}
			encodings = append(encodings, pad)
			pad = append([]byte{0xFF}, pad[1:]...)
			encodings = append(encodings, pad)
		}
	}
	// Overlong (11 bytes) and overflowing 10-byte varints fail.
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}
	overflow := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}
	encodings = append(encodings, overlong, overflow)
	for _, e := range encodings {
		for col := 0; col < 2; col++ {
			for tail := 0; tail <= 9; tail++ {
				b := varintRows(e, col, tail)
				// Ending the section exactly `tail` bytes before the end of
				// the buffer: the trailing 0xFF bytes must never be read as
				// part of the varint.
				check(fmt.Sprintf("varint % x col %d tail %d", e, col, tail), b, 1, 2)
				if _, want := binary.Uvarint(e); want <= 0 {
					if _, err := decodeDeltaRows(b, 0, &Record{Ts: make([]float64, 2), Samples: make([]float64, 2)}, 2, 1); err == nil {
						t.Errorf("varint % x col %d tail %d: malformed varint decoded without error", e, col, tail)
					}
				}
			}
		}
	}
}

// FuzzDecodeDeltaRowsReference drives decodeDeltaRows and the
// byte-loop reference with arbitrary bytes as a row section: either
// both fail, or both succeed with identical bits and the same number of
// bytes consumed.
func FuzzDecodeDeltaRowsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	f.Add(uint8(8), uint8(40), encodeDeltaRows(sweepRecord(rng, 0, 8, 40)))
	f.Add(uint8(3), uint8(16), encodeDeltaRows(specialRecord(0)))
	f.Add(uint8(1), uint8(2), []byte{0: 0x3F, 15: 0x40, 16: 0x80, 17: 0x00, 18: 0xFF, 19: 0x01})
	f.Add(uint8(0), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, w, n uint8, b []byte) {
		width, nSamples := int(w%9), int(n%64)+1
		if err := compareWithReference(b, width, nSamples); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeErrorOffsetsCountFromBody pins one offset origin for every
// payload decode error: a bad varint in the row section and a truncated
// raw section both report their offset from the start of the payload
// body (after the codec byte).
func TestDecodeErrorOffsetsCountFromBody(t *testing.T) {
	// Row 1 of the state column flips the sign of 1.0: first-order XOR
	// leaves only bit 63, a 10-byte uvarint whose last byte is 0x01.
	rec := &Record{Index: 4, Width: 1, Params: []float64{7, 8}, Ts: []float64{0, 1}, Samples: []float64{1, -1}, Metrics: []float64{2}}
	payload := encodeDeltaFuzzSeed(rec)
	body := payload[1:]
	rowsAt := 8 + 4 + 8*len(rec.Params) + 4 + 4
	timeLen := len(binary.AppendUvarint(nil, math.Float64bits(1)))
	varintAt := rowsAt + 16 + timeLen
	if body[varintAt+9] != 0x01 {
		t.Fatalf("sign-flip varint ends in %#x, want 0x01", body[varintAt+9])
	}

	corrupt := append([]byte{}, payload...)
	corrupt[1+varintAt+9] = 0x02 // overflows 64 bits
	_, err := decodePayload(corrupt, 2)
	if want := fmt.Sprintf("bad varint in sample row 1 at offset %d", varintAt); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("overflowing varint: error %v, want %q", err, want)
	}

	// Cut the payload inside the metric values: payloadReader reports
	// where the metric section starts, counted the same way.
	metricsAt := varintAt + 10 + 4
	_, err = decodePayload(payload[:1+metricsAt+3], 2)
	if want := fmt.Sprintf("truncated payload reading metrics at offset %d", metricsAt); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("truncated metrics: error %v, want %q", err, want)
	}
}

// TestDecodeDeltaPayloadAllocs pins the allocations of decoding one
// delta record: the record and its four slices (params, times,
// samples, metrics). The row decoder itself adds none.
func TestDecodeDeltaPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates absolute allocation counts")
	}
	payload := encodeDeltaFuzzSeed(sweepRecord(rand.New(rand.NewSource(1)), 0, 8, 201))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePayload(payload, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 5 {
		t.Errorf("decodePayload of a delta record: %.1f allocs, want 5", allocs)
	}
}

// BenchmarkDecodeDeltaRows decodes the row section of one sweep-shaped
// record (width 8, 2001 rows, the megasweep read shape). Bytes/op is
// the decoded (raw) row bytes.
func BenchmarkDecodeDeltaRows(b *testing.B) {
	const width, nSamples = 8, 2001
	rows := encodeDeltaRows(sweepRecord(rand.New(rand.NewSource(1)), 0, width, nSamples))
	rec := &Record{Width: width, Ts: make([]float64, nSamples), Samples: make([]float64, nSamples*width)}
	b.SetBytes(8 * (1 + width) * nSamples)
	for b.Loop() {
		if _, err := decodeDeltaRows(rows, 0, rec, nSamples, width); err != nil {
			b.Fatal(err)
		}
	}
}
