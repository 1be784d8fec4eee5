package sim_test

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/archive"
	"repro/internal/continuum"
	"repro/internal/kuramoto"
	"repro/internal/sim"
)

// The buffer-scribble regression tests pin the Sink buffer-reuse
// contract at runtime, complementing the sinkretain static check:
// Sample's row slice is valid only for the duration of the call, so
// every in-tree sink must end in an identical state whether its rows
// arrived in fresh slices or in one buffer overwritten with NaN after
// each call. A retained header drags the scribble into the state and
// the comparison fails.

const (
	scribbleWidth = 6
	scribbleRows  = 24
)

// fillRow writes the deterministic row k into dst.
func fillRow(dst []float64, k int) {
	for i := range dst {
		dst[i] = math.Sin(float64(k)*0.7 + float64(i)*1.3)
	}
}

// driveScribbled feeds every row from one reused buffer, scribbling it
// with NaN after each call — the adversarial version of the solver's
// reuse pattern.
func driveScribbled(s sim.Sink) {
	buf := make([]float64, scribbleWidth)
	s.Begin(scribbleWidth, scribbleRows)
	for k := 0; k < scribbleRows; k++ {
		fillRow(buf, k)
		s.Sample(float64(k)*0.5, buf)
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
}

// driveFresh feeds the same rows, each in its own slice.
func driveFresh(s sim.Sink) {
	s.Begin(scribbleWidth, scribbleRows)
	for k := 0; k < scribbleRows; k++ {
		row := make([]float64, scribbleWidth)
		fillRow(row, k)
		s.Sample(float64(k)*0.5, row)
	}
}

// TestSinksSurviveBufferScribble drives every in-memory sink both ways
// and requires bit-identical final state (reflect.DeepEqual sees the
// unexported fields; any retained NaN-scribbled slice differs).
func TestSinksSurviveBufferScribble(t *testing.T) {
	sinks := map[string]func() sim.Sink{
		"spread":        func() sim.Sink { return &sim.SpreadAccumulator{KeepTimeline: true} },
		"order":         func() sim.Sink { return &sim.OrderAccumulator{} },
		"resync":        func() sim.Sink { return &sim.ResyncDetector{Eps: 0.1} },
		"gap":           func() sim.Sink { return &sim.GapAccumulator{} },
		"lock":          func() sim.Sink { return &sim.LockAccumulator{} },
		"slip-counter":  func() sim.Sink { return &kuramoto.SlipCounter{} },
		"front-tracker": func() sim.Sink { return &continuum.FrontTracker{} },
		"tee-of-spread": func() sim.Sink { return sim.Tee(&sim.SpreadAccumulator{}, &sim.OrderAccumulator{}) },
	}
	names := make([]string, 0, len(sinks))
	for name := range sinks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mk := sinks[name]
		scribbled, fresh := mk(), mk()
		driveScribbled(scribbled)
		driveFresh(fresh)
		if !reflect.DeepEqual(scribbled, fresh) {
			t.Errorf("%s: state differs after buffer scribble — the sink retains its row buffer:\nscribbled: %+v\nfresh:     %+v",
				name, scribbled, fresh)
		}
	}
}

// TestRecordWriterSurvivesBufferScribble drives the archive record
// writer both ways and requires byte-identical shards: rows are
// encoded during Sample, so a scribbled buffer must leave no trace on
// disk. The params slice handed to Writer.Begin is scribbled too.
func TestRecordWriterSurvivesBufferScribble(t *testing.T) {
	writeShard := func(dir string, scribble bool) []byte {
		t.Helper()
		w, err := archive.CreateWith(dir, 0, archive.CodecDefault)
		if err != nil {
			t.Fatal(err)
		}
		params := []float64{1.5, -2.25}
		rw, err := w.Begin(7, params)
		if err != nil {
			t.Fatal(err)
		}
		if scribble {
			params[0], params[1] = math.NaN(), math.NaN()
			driveScribbled(rw)
		} else {
			driveFresh(rw)
		}
		if err := rw.Finish([]float64{3.5}, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(w.Path())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	scribbled := writeShard(t.TempDir(), true)
	fresh := writeShard(t.TempDir(), false)
	if !bytes.Equal(scribbled, fresh) {
		t.Error("shard bytes differ after buffer scribble — the record writer retains a caller slice")
	}
}
