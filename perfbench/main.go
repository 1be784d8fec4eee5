// Perfbench is the repository benchmark: it runs one named workload
// through the public functions of the scenario, sim, ode, archive,
// sweep, dsweep and serve packages, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output. README.md lists the workloads, the
// metrics and what each layer is expected to move.
//
//	bash perfbench/run.sh --workload dense --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// workload is one named benchmark input. Every workload runs all three
// phases (family-solve, sweep-archive, serve-mix) and prints every
// metric; workloads differ in how densely the sweep points and the
// served specs are sampled, which decides whether rows (codec, sinks,
// rendering) or the solver dominate.
type workload struct {
	name         string
	sweepSamples int // samples per sweep point
	serveSamples int // samples per served spec
}

// workloads lists every workload the benchmark runs.
var workloads = []*workload{
	// Row encode and decode, the summary sinks and rendering weigh.
	{name: "dense", sweepSamples: 2001, serveSamples: 601},
	// The solver, seals and HTTP round trips weigh.
	{name: "sparse", sweepSamples: 201, serveSamples: 121},
}

// endToEnd and perLayer are the metrics printed with --trace 0 and
// --trace 1; every workload prints all of them.
var endToEnd, perLayer = metricDefs()

func metricDefs() (e2e, layers []metricDef) {
	e2e = append(e2e, metricDef{"setup_s", "s"})
	for _, f := range families {
		e2e = append(e2e, metricDef{"run_ms." + f, "ms"})
	}
	e2e = append(e2e, sweepEndToEnd...)
	e2e = append(e2e, serveEndToEnd...)
	for _, f := range families {
		layers = append(layers,
			metricDef{"scenario.build_ms." + f, "ms"},
			metricDef{"rhs.ns_per_eval." + f, "ns"},
			metricDef{"rhs.ms." + f, "ms"},
			metricDef{"ode.overhead_ms." + f, "ms"},
			metricDef{"ode.evals." + f, "count"},
			metricDef{"ode.steps." + f, "count"},
			metricDef{"ode.rejected." + f, "count"},
			metricDef{"sim.sinks_ms." + f, "ms"},
			metricDef{"residual_ms." + f, "ms"},
		)
	}
	layers = append(layers, sweepPerLayer...)
	layers = append(layers, servePerLayer...)
	layers = append(layers, metricDef{"trace.overhead_pct", "%"})
	return e2e, layers
}

// options carries one run's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	root    string // repository root, where examples/scenarios lives
	work    string // scratch directory, removed when the run ends

	sweepSamples, serveSamples int // the workload's shape

	// wrapHandler, when set, wraps the served HTTP handler; tests use it
	// to corrupt bodies on the wire.
	wrapHandler func(http.Handler) http.Handler
	// afterArchive, when set, runs on each round's archive directory
	// before it is read back; tests use it to corrupt a record.
	afterArchive func(dir string) error
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's outcome: checked operations, metric
// values and human-readable notes printed before the result line.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one checked operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the printed result from the given metric set; every
// metric must have a finite value.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: "+workloadNames())
	seed := fset.Uint64("seed", 1, "workload seed")
	seconds := fset.Float64("seconds", 20, "measured seconds")
	traced := fset.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(work) }() // scratch only
	o := &options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), root: root, work: work,
		sweepSamples: w.sweepSamples, serveSamples: w.serveSamples,
	}
	var tr *Tracer
	defs := endToEnd
	if *traced == 1 {
		tr = &Tracer{}
		defs = perLayer
	}
	rep, err := runWorkload(context.Background(), o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		rep.notef("spans: %s", path)
	}

	bw := bufio.NewWriter(stdout)
	m := runMeta(w.name, *seed, *seconds, *traced == 1, root)
	if line, err := json.Marshal(map[string]any{"meta": m}); err == nil {
		fmt.Fprintf(bw, "%s\n", line)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// meta identifies what was measured, where and on which sources.
type meta struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Commit   string  `json:"commit"`
	Source   string  `json:"source_sha256"`
	CPU      string  `json:"cpu"`
	NProc    int     `json:"nproc"`
	GOARCH   string  `json:"goarch"`
	Go       string  `json:"go"`
}

func runMeta(name string, seed uint64, seconds float64, traced bool, root string) meta {
	m := meta{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Commit: "unknown", Source: sourceDigest(root), CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOARCH: runtime.GOARCH, Go: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if m.Commit != "unknown" {
			m.Commit += dirty
		}
	}
	return m
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and scenario files the benchmark
// measures, so a result names its code even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"internal", "examples/scenarios"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".json")) {
				files = append(files, path)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// errorf joins a context prefix onto err, or returns nil.
func errorf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
