package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/archive"
)

// testRecord is an in-memory record of rows × width row-like values.
func testRecord(rows, width int) *archive.Record {
	rng := rand.New(rand.NewPCG(3, 4))
	rec := &archive.Record{Width: width, Ts: make([]float64, rows), Samples: make([]float64, rows*width)}
	for k := range rec.Ts {
		rec.Ts[k] = 0.1 * float64(k)
	}
	for i := range rec.Samples {
		rec.Samples[i] = (rng.Float64() - 0.2) * math.Pow(10, float64(i%7-2))
	}
	return rec
}

// TestAppendRowAllocs pins that rendering a row into a pre-sized buffer
// allocates nothing.
func TestAppendRowAllocs(t *testing.T) {
	rec := testRecord(4, 41)
	buf := make([]byte, 0, maxRowLen(rec.Width))
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < rec.NSamples(); k++ {
			buf = AppendRow(buf[:0], rec.Ts[k], rec.Row(k))
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRow into a pre-sized buffer: %v allocs/run, want 0", allocs)
	}
	if len(buf) > maxRowLen(rec.Width) {
		t.Fatalf("row of %d bytes exceeds maxRowLen %d", len(buf), maxRowLen(rec.Width))
	}
}

// TestRenderRecordAllocatesOnce pins RenderRecord's single allocation.
func TestRenderRecordAllocatesOnce(t *testing.T) {
	rec := testRecord(300, 41)
	if allocs := testing.AllocsPerRun(10, func() { RenderRecord(rec) }); allocs != 1 {
		t.Fatalf("RenderRecord: %v allocs/run, want 1", allocs)
	}
}

// chunkRecorder records every Write separately.
type chunkRecorder struct {
	writes [][]byte
	failAt int // the Write index that fails; -1 never
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if len(c.writes) == c.failAt {
		return 0, errors.New("client gone")
	}
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// TestWriteRecordChunks pins the cache-hit stream: its writes concatenate
// to RenderRecord's body, and every write but the last is a full chunk —
// within one row of hitChunk, never over it.
func TestWriteRecordChunks(t *testing.T) {
	rec := testRecord(2000, 41)
	want := RenderRecord(rec)
	c := &chunkRecorder{failAt: -1}
	if rows := writeRecord(context.Background(), c, rec); rows != rec.NSamples() {
		t.Fatalf("writeRecord wrote %d rows, want %d", rows, rec.NSamples())
	}
	if len(c.writes) < 3 {
		t.Fatalf("%d writes for a %d-byte body, want several chunks", len(c.writes), len(want))
	}
	for i, w := range c.writes[:len(c.writes)-1] {
		if len(w) > hitChunk || len(w) <= hitChunk-maxRowLen(rec.Width) {
			t.Errorf("write %d has %d bytes, want a full %d-byte chunk", i, len(w), hitChunk)
		}
	}
	if got := bytes.Join(c.writes, nil); !bytes.Equal(got, want) {
		t.Fatalf("streamed body (%d bytes) differs from RenderRecord (%d bytes)", len(got), len(want))
	}

	// A failed write stops the stream at the rows already written.
	c = &chunkRecorder{failAt: 2}
	rows := writeRecord(context.Background(), c, rec)
	if got := bytes.Join(c.writes, nil); rows >= rec.NSamples() || !bytes.HasPrefix(want, got) ||
		bytes.Count(got, []byte("\n")) != rows {
		t.Fatalf("after a failed write: %d rows reported, %d bytes written", rows, len(got))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows := writeRecord(ctx, &chunkRecorder{failAt: -1}, rec); rows != 0 {
		t.Fatalf("canceled context: %d rows written, want 0", rows)
	}
}
