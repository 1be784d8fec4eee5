package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite pins.json from the current tree")

// TestUpdatePins rewrites pins.json: go test -run TestUpdatePins -update.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite pins.json")
	}
	files, err := filepath.Glob("../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	pins := make(map[string]pin)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runCase(&famCase{file: filepath.Base(f), data: data}, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		pins[filepath.Base(f)] = r.outcome
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func tinyOptions(t *testing.T, w *workload) *options {
	return &options{
		seed: 7, seconds: 300 * time.Millisecond, root: "..", work: t.TempDir(),
		sweepSamples: w.sweepSamples, serveSamples: w.serveSamples,
	}
}

// TestEveryMetricPrints runs a tiny pass of each workload, untraced and
// traced, and checks that every named metric is measured with its unit
// and that no operation failed.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var tr *Tracer
			defs := endToEnd
			if traced {
				tr, defs = &Tracer{}, perLayer
			}
			rep, err := runWorkload(context.Background(), tinyOptions(t, w), tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			res, err := rep.result(defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			for _, d := range defs {
				if m := res.Metrics[d.name]; m.Unit != d.unit || m.Unit == "" {
					t.Errorf("%s: metric %s printed with unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equalSets(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		units := make(map[string]string)
		for _, d := range defs {
			if _, ok := units[d.name]; ok {
				t.Errorf("%s metric %s is defined twice", kind, d.name)
			}
			units[d.name] = d.unit
		}
		seen := make(map[string]bool)
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("BENCHMARK.json %s metric %s unit %q, program prints %q", kind, m.Name, m.Unit, units[m.Name])
			}
			seen[m.Name] = true
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// flipWriter flips one byte of the response body at offset off.
type flipWriter struct {
	http.ResponseWriter
	off int
}

func (w *flipWriter) Write(p []byte) (int, error) {
	if w.off >= 0 && w.off < len(p) {
		q := append([]byte(nil), p...)
		q[w.off] ^= 1
		w.off = -1
		return w.ResponseWriter.Write(q)
	}
	if w.off >= 0 {
		w.off -= len(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *flipWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestCorruptServedBodyFails flips one byte in the first served body
// and expects that request to count as failed.
func TestCorruptServedBodyFails(t *testing.T) {
	o := tinyOptions(t, workloads[0])
	var first atomic.Bool
	o.wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if first.CompareAndSwap(false, true) {
				w = &flipWriter{ResponseWriter: w, off: 1000}
			}
			h.ServeHTTP(w, r)
		})
	}
	ctx, p, rep := context.Background(), newServePhase(o), newReport()
	if err := p.setup(ctx, rep); err != nil {
		t.Fatal(err)
	}
	if err := p.step(ctx, nil, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("one corrupted body: %d of %d operations failed, want 1", rep.failed, rep.attempted)
	}
}

// TestCorruptArchivedRecordFails flips one byte inside the first record
// of each round's archive and expects failed operations.
func TestCorruptArchivedRecordFails(t *testing.T) {
	o := tinyOptions(t, workloads[0])
	o.afterArchive = func(dir string) error {
		shards, err := filepath.Glob(filepath.Join(dir, "shard-*.pom"))
		if err != nil || len(shards) == 0 {
			return err
		}
		b, err := os.ReadFile(shards[0])
		if err != nil {
			return err
		}
		b[len(b)/4] ^= 1
		return os.WriteFile(shards[0], b, 0o644)
	}
	ctx, p, rep := context.Background(), newSweepPhase(o), newReport()
	if err := p.setup(ctx, rep); err != nil {
		t.Fatal(err)
	}
	if err := p.step(ctx, nil, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Errorf("corrupted archive record: none of %d operations failed", rep.attempted)
	}
}

// TestPinMismatchFails checks that a run differing from its pin fails.
func TestPinMismatchFails(t *testing.T) {
	c := &famCase{file: "x.json", pin: pin{Vector: []string{"0"}}}
	if err := c.check(pin{Vector: []string{"1"}}); err == nil {
		t.Error("differing summary bits passed the pin check")
	}
}
