package archive

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// specialRecord builds a record whose rows hit every IEEE-754 corner
// the codec must round-trip bitwise: NaNs with distinct payloads, ±Inf,
// subnormals, signed zeros, sign flips, and exact powers of two (where
// an XOR against a near-miss prediction spans the exponent boundary).
func specialRecord(index uint64) *Record {
	vals := []float64{
		0, math.Copysign(0, -1),
		math.NaN(),
		math.Float64frombits(0x7FF8000000000001), // NaN, different payload
		math.Float64frombits(0xFFF0000000000123), // negative signalling-ish NaN
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		1.0, 2.0, 4.0, -1.0,
		1.0000000000000002, // 1 + ulp
	}
	const width = 3
	nSamples := len(vals)
	rec := &Record{Index: index, Width: width, Params: []float64{math.Pi}}
	rec.Ts = make([]float64, nSamples)
	rec.Samples = make([]float64, nSamples*width)
	for k := 0; k < nSamples; k++ {
		rec.Ts[k] = float64(k) * 0.25
		for i := 0; i < width; i++ {
			rec.Samples[k*width+i] = vals[(k+i*5)%len(vals)]
		}
	}
	rec.Metrics = []float64{math.Inf(1), math.NaN()}
	return rec
}

// TestCodecRoundTripAllVariants runs the record round-trip property
// over every format variant, with both random records and the
// special-value record, pinning decode(encode(rows)) bitwise-identical.
// For POMARC1 it pins that the committed legacy shard still decodes to
// the records it was written from.
func TestCodecRoundTripAllVariants(t *testing.T) {
	for _, v := range formatVariants {
		t.Run(v, func(t *testing.T) {
			dir := t.TempDir()
			writeVariantShard(t, v, dir, 0)
			a, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			for i, want := range variantRecords() {
				got, err := a.Read(uint64(i))
				if err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !recordsEqual(got, want) {
					t.Fatalf("record %d changed through %s round trip:\n got %+v\nwant %+v",
						i, v, got, want)
				}
			}
		})
	}
}

// TestCanonicalEqualAcrossCodecs pins the cross-generation equality
// story: the same records archived as delta, raw, and legacy POMARC1
// yield identical ReadCanonical bytes, even though the on-disk payloads
// differ.
func TestCanonicalEqualAcrossCodecs(t *testing.T) {
	archives := make([]*Archive, len(formatVariants))
	for i, v := range formatVariants {
		dir := t.TempDir()
		writeVariantShard(t, v, dir, 0)
		a, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		archives[i] = a
	}
	for _, rec := range variantRecords() {
		ref, err := archives[0].ReadCanonical(rec.Index)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range archives[1:] {
			got, err := a.ReadCanonical(rec.Index)
			if err != nil {
				t.Fatalf("%s: %v", formatVariants[i+1], err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("record %d: canonical bytes differ between %s and %s",
					rec.Index, formatVariants[0], formatVariants[i+1])
			}
		}
		// v1 canonical bytes are the raw payload itself; the v2 raw
		// codec stores them behind one codec byte.
		rawPayload, err := archives[1].ReadRaw(rec.Index)
		if err != nil {
			t.Fatal(err)
		}
		if len(rawPayload) != len(ref)+1 || !bytes.Equal(rawPayload[1:], ref) {
			t.Fatalf("record %d: raw codec payload is not codec byte + canonical bytes", rec.Index)
		}
	}
}

// TestMixedGenerationDir pins that one directory can mix POMARC1 and
// POMARC2 shards of either codec: OpenDir reads all of them and Iter
// sees every point.
func TestMixedGenerationDir(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	n := len(variantRecords())
	writeVariantShard(t, "v1", dir, 0) // indices [0, n)
	for s, codec := range []Codec{CodecDelta, CodecRaw} {
		w, err := CreateWith(dir, s+1, codec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := w.Append(randRecord(rng, uint64(n+s*4+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != n+8 {
		t.Fatalf("mixed-generation archive has %d points, want %d", a.Len(), n+8)
	}
	seen := 0
	if err := a.Iter(func(*Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != n+8 {
		t.Fatalf("Iter visited %d of %d records", seen, n+8)
	}
}

// TestShardVersionAndRecordCodec pins the format metadata surfaced to
// tools (pomread -stats): header version and per-record codec byte.
func TestShardVersionAndRecordCodec(t *testing.T) {
	wantCodec := map[string]Codec{"delta": CodecDelta, "raw": CodecRaw, "v1": CodecRaw}
	wantVer := map[string]int{"delta": 2, "raw": 2, "v1": 1}
	for _, v := range formatVariants {
		s, err := OpenShard(writeVariantShard(t, v, t.TempDir(), 0))
		if err != nil {
			t.Fatal(err)
		}
		if s.Version() != wantVer[v] {
			t.Errorf("%s: version %d, want %d", v, s.Version(), wantVer[v])
		}
		for k := 0; k < s.Len(); k++ {
			c, err := s.RecordCodec(k)
			if err != nil {
				t.Fatal(err)
			}
			if c != wantCodec[v] {
				t.Errorf("%s: record %d codec %v, want %v", v, k, c, wantCodec[v])
			}
		}
		s.Close()
	}
}

// TestDeltaCompressesSmoothRows is the compression smoke test: a
// linear-in-t trajectory (the post-locking shape) must shrink several-
// fold under CodecDelta relative to CodecRaw.
func TestDeltaCompressesSmoothRows(t *testing.T) {
	const width, nSamples = 8, 201
	rec := &Record{Index: 0, Width: width}
	rec.Ts = make([]float64, nSamples)
	rec.Samples = make([]float64, nSamples*width)
	for k := 0; k < nSamples; k++ {
		tt := float64(k) * 0.2
		rec.Ts[k] = tt
		for i := 0; i < width; i++ {
			rec.Samples[k*width+i] = 2*math.Pi*tt + 0.8*float64(i)
		}
	}
	size := func(codec Codec) int64 {
		dir := t.TempDir()
		w, err := CreateWith(dir, 0, codec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, shardName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	raw, delta := size(CodecRaw), size(CodecDelta)
	if delta*3 > raw {
		t.Errorf("smooth trajectory compressed %d -> %d bytes (< 3x)", raw, delta)
	}
}

// TestParseCodec pins the flag surface.
func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"", CodecDefault, true},
		{"raw", CodecRaw, true},
		{"delta", CodecDelta, true},
		{"zstd", CodecDefault, false},
	} {
		got, err := ParseCodec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v", tc.in, got, err)
		}
	}
	if CodecDefault.String() != "delta" || CodecRaw.String() != "raw" {
		t.Errorf("codec names: default=%q raw=%q", CodecDefault.String(), CodecRaw.String())
	}
}

// TestRecordEncodeSteadyStateAllocs pins the streaming encoder's
// steady-state allocation budget for both codecs: after warm-up, one
// full record (Begin → rows → Finish) costs exactly the RecordWriter
// struct — one allocation — independent of the row shape, because
// RecordWriter.Begin pre-sizes every scratch buffer from (n, nSamples).
func TestRecordEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates absolute allocation counts")
	}
	for _, codec := range []Codec{CodecRaw, CodecDelta} {
		t.Run(codec.String(), func(t *testing.T) {
			for _, shape := range []struct{ width, nSamples int }{{2, 3}, {8, 201}} {
				w, err := CreateWith(t.TempDir(), 0, codec)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Abort()
				row := make([]float64, shape.width)
				next := uint64(0)
				writeOne := func() {
					rw, err := w.Begin(next, nil)
					if err != nil {
						t.Fatal(err)
					}
					next++
					rw.Begin(shape.width, shape.nSamples)
					for k := 0; k < shape.nSamples; k++ {
						for i := range row {
							row[i] = float64(k) * 0.25
						}
						rw.Sample(float64(k), row)
					}
					if err := rw.Finish(nil, nil); err != nil {
						t.Fatal(err)
					}
				}
				// Warm-up grows the shard's index-entry slice past the
				// measured window, so the pin sees only per-record cost.
				for i := 0; i < 48; i++ {
					writeOne()
				}
				best := math.Inf(1)
				for rep := 0; rep < 3; rep++ {
					if a := testing.AllocsPerRun(16, writeOne); a < best {
						best = a
					}
				}
				if best > 1 {
					t.Errorf("codec %v shape %dx%d: %.1f allocs per record in steady state, want <= 1",
						codec, shape.width, shape.nSamples, best)
				}
			}
		})
	}
}
