package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/continuum"
	"repro/internal/kuramoto"
	"repro/internal/ode"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// families are the scenario families of examples/scenarios, one file each.
var families = []string{"pom", "kuramoto", "continuum", "torus2d", "linstab", "cluster"}

// pin is the pinned outcome of one example scenario: exact solver
// statistics, the bits of Summary.Vector() and the family sink's result.
type pin struct {
	Stats  ode.Stats `json:"stats"`
	Vector []string  `json:"vector_bits"`
	Sink   string    `json:"sink,omitempty"`
}

//go:embed pins.json
var pinsJSON []byte

// loadPins returns the pinned outcomes keyed by scenario file name.
func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// famCase is one examples/scenarios file.
type famCase struct {
	file, family string
	data         []byte
	pin          pin

	// Traced runs only: a built system and states taken from a run, for
	// timing System.Eval.
	calib  sim.System
	states [][]float64
	times  []float64
}

// famRun is what one run of a case produced.
type famRun struct {
	outcome pin
	ns      int64
}

// familyPhase runs every example scenario in turn, one pass per step.
type familyPhase struct {
	o     *options
	cases []*famCase
	req   int

	plain  map[string][]float64 // family → untraced run ms
	traced map[string][]float64 // family → traced run ms
	runs   []tracedRun
}

// tracedRun is what a traced run of one case measured.
type tracedRun struct {
	family    string
	req       int
	nsPerEval float64
	stats     ode.Stats
}

func newFamilyPhase(o *options) *familyPhase {
	return &familyPhase{o: o, plain: make(map[string][]float64), traced: make(map[string][]float64)}
}

func (p *familyPhase) setup(_ context.Context, rep *report) error {
	cases, err := setupFamily(p.o, rep)
	p.cases = cases
	return err
}

func (p *familyPhase) step(_ context.Context, tr *Tracer, rep *report) error {
	for _, c := range p.cases {
		if tr != nil && c.states == nil {
			if err := captureStates(c); err != nil {
				return err
			}
		}
		p.req++
		r, err := runCase(c, tr, p.req)
		if err != nil {
			rep.op(err)
			continue
		}
		rep.op(c.check(r.outcome))
		if tr == nil {
			p.plain[c.family] = append(p.plain[c.family], ms(r.ns))
			continue
		}
		p.traced[c.family] = append(p.traced[c.family], ms(r.ns))
		st := r.outcome.Stats
		p.runs = append(p.runs, tracedRun{family: c.family, req: p.req, nsPerEval: c.timeEval(st.Evals), stats: st})
	}
	return nil
}

func (p *familyPhase) finish(rep *report, tr *Tracer) float64 {
	for _, f := range families {
		xs := p.plain[f]
		rep.set("run_ms."+f, median(xs))
		rep.notef("family-solve %s: %d untraced runs, p10 %.3f p50 %.3f p90 %.3f ms",
			f, len(xs), quantile(xs, 0.1), median(xs), quantile(xs, 0.9))
	}
	if tr == nil {
		return 0
	}

	self := tr.SelfTimes()
	var tracedSum, plainSum float64
	for _, c := range p.cases {
		f := c.family
		var build, solve, sinks, rhs, perEval []float64
		var st ode.Stats
		for _, r := range p.runs {
			if r.family != f {
				continue
			}
			s := self[r.req]
			build = append(build, ms(s["scenario.load"]+s["scenario.build"]))
			solve = append(solve, ms(s["sim.solve"]))
			sinks = append(sinks, ms(s["sim.sinks"]))
			perEval = append(perEval, r.nsPerEval)
			rhs = append(rhs, r.nsPerEval*float64(r.stats.Evals)/1e6)
			st = r.stats
		}
		run := median(p.traced[f])
		b, rh, sk := median(build), median(rhs), median(sinks)
		overhead := median(solve) - rh
		rep.set("scenario.build_ms."+f, b)
		rep.set("rhs.ns_per_eval."+f, median(perEval))
		rep.set("rhs.ms."+f, rh)
		rep.set("ode.overhead_ms."+f, overhead)
		rep.set("ode.evals."+f, float64(st.Evals))
		rep.set("ode.steps."+f, float64(st.Steps))
		rep.set("ode.rejected."+f, float64(st.Rejected))
		rep.set("sim.sinks_ms."+f, sk)
		residual := run - b - rh - overhead - sk
		rep.set("residual_ms."+f, residual)
		rep.notef("family-solve %s: traced run %.3f ms = build %.3f + rhs %.3f + ode %.3f + sinks %.3f + residual %.3f (untraced %.3f ms, %d traced runs)",
			f, run, b, rh, overhead, sk, residual, median(p.plain[f]), len(p.traced[f]))
		tracedSum += run
		plainSum += median(p.plain[f])
	}
	return tracedSum / plainSum
}

// setupFamily reads the example scenarios and their pins and runs each
// once, checked, so caches are warm before timing.
func setupFamily(o *options, rep *report) ([]*famCase, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(o.root, "examples", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	byFamily := make(map[string]*famCase)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fam, err := spec.FamilyName()
		if err != nil {
			return nil, err
		}
		name := filepath.Base(path)
		p, ok := pins[name]
		if !ok {
			return nil, fmt.Errorf("no pin for %s in pins.json", name)
		}
		if byFamily[fam] != nil {
			return nil, fmt.Errorf("two example scenarios of family %s", fam)
		}
		byFamily[fam] = &famCase{file: name, family: fam, data: data, pin: p}
	}
	var cases []*famCase
	for _, f := range families {
		c := byFamily[f]
		if c == nil {
			return nil, fmt.Errorf("no example scenario of family %s", f)
		}
		r, err := runCase(c, nil, 0)
		if err == nil {
			err = c.check(r.outcome)
		}
		rep.op(err)
		cases = append(cases, c)
	}
	return cases, nil
}

// runCase is one pomsim -config run without printing: Load, BuildSystem,
// then RunSummaryTo with the family's sinks. With a tracer it streams
// through the same accumulators RunSummaryTo uses, each wrapped so the
// time spent in Sample is recorded.
func runCase(c *famCase, tr *Tracer, req int) (famRun, error) {
	t0 := nanotime()
	root := tr.Begin("family.run", 0, req)
	sp := tr.Begin("scenario.load", root, req)
	spec, err := scenario.Load(bytes.NewReader(c.data))
	tr.End(sp)
	if err != nil {
		return famRun{}, err
	}
	sp = tr.Begin("scenario.build", root, req)
	sys, tEnd, samples, err := spec.BuildSystem()
	tr.End(sp)
	if err != nil {
		return famRun{}, err
	}
	extra, sinkResult := familySinks(spec)
	var sum *sim.Summary
	if tr == nil {
		sum, err = sim.RunSummaryTo(sys, tEnd, samples, 0.1, 0.15, extra...)
	} else {
		sp = tr.Begin("sim.solve", root, req)
		sum, _, err = tracedSummary(tr, sp, req, sys, tEnd, samples, extra)
		tr.End(sp)
	}
	if err != nil {
		return famRun{}, err
	}
	out := pin{Stats: sum.Stats, Sink: sinkResult()}
	ns := nanotime() - t0
	tr.End(root)
	for _, v := range sum.Vector() {
		out.Vector = append(out.Vector, strconv.FormatUint(math.Float64bits(v), 16))
	}
	return famRun{outcome: out, ns: ns}, nil
}

// tracedSummary is sim.RunSummaryTo(sys, tEnd, samples, 0.1, 0.15,
// extra...) with every sink's Sample time recorded as one "sim.sinks"
// span under parent, whose id it returns. The pinned Summary bits check
// that it computes the same summary.
func tracedSummary(tr *Tracer, parent, req int, sys sim.System, tEnd float64, samples int, extra []sim.Sink) (*sim.Summary, int, error) {
	spread := &sim.SpreadAccumulator{FinalFraction: 0.15}
	order := &sim.OrderAccumulator{FinalFraction: 0.15}
	resync := &sim.ResyncDetector{Eps: 0.1}
	gaps := &sim.GapAccumulator{FinalFraction: 0.15}
	sinks := &timedSink{sink: sim.Tee(append([]sim.Sink{spread, order, resync, gaps}, extra...)...)}
	st, err := sim.RunStream(sys, tEnd, samples, sinks)
	if err != nil {
		return nil, 0, err
	}
	id := tr.Add(sinks.span("sim.sinks", parent, req))
	sum := &sim.Summary{
		FinalSpread:      spread.Final(),
		MaxSpread:        spread.Max(),
		AsymptoticSpread: spread.Asymptotic(),
		FinalOrder:       order.Final(),
		MinOrder:         order.Min(),
		Gaps:             gaps.Gaps(),
		MeanAbsGap:       gaps.MeanAbsGap(),
		Stats:            st,
	}
	if rt, err := resync.ResyncTime(); err == nil {
		sum.Resynced, sum.ResyncTime = true, rt
	}
	return sum, id, nil
}

// familySinks returns the family's public streaming sinks (the ones
// pomsim -config tees into the run) and a function rendering their
// result for the pin.
func familySinks(spec *scenario.Spec) ([]sim.Sink, func() string) {
	switch spec.Family {
	case "kuramoto":
		slips := &kuramoto.SlipCounter{}
		return []sim.Sink{slips}, func() string {
			return fmt.Sprintf("slips=%d drifting=%d", slips.Slips(), slips.Drifting(0.05))
		}
	case "continuum":
		c := spec.Continuum
		tracker := &continuum.FrontTracker{Grid: continuum.Grid{M: c.M, A: c.A, Periodic: c.Periodic}}
		return []sim.Sink{tracker}, func() string {
			fr, err := tracker.Finish()
			if err != nil {
				return "front=none"
			}
			return fmt.Sprintf("front velocity=%x r2=%x detected=%d",
				math.Float64bits(fr.Velocity), math.Float64bits(fr.R2), fr.Detected)
		}
	}
	return nil, func() string { return "" }
}

// check compares a run's outcome with the pin.
func (c *famCase) check(got pin) error {
	want := c.pin
	if got.Stats != want.Stats {
		return fmt.Errorf("%s: solver stats %v, pinned %v", c.file, got.Stats, want.Stats)
	}
	if fmt.Sprint(got.Vector) != fmt.Sprint(want.Vector) {
		return fmt.Errorf("%s: summary vector bits %v, pinned %v", c.file, got.Vector, want.Vector)
	}
	if got.Sink != want.Sink {
		return fmt.Errorf("%s: family sink %q, pinned %q", c.file, got.Sink, want.Sink)
	}
	return nil
}

// evalStates is how many states captureStates keeps per scenario.
const evalStates = 16

// captureStates runs the case once, keeping evalStates evenly spaced
// sample rows, and builds the system that timeEval evaluates on them.
func captureStates(c *famCase) error {
	spec, err := scenario.Load(bytes.NewReader(c.data))
	if err != nil {
		return err
	}
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		return err
	}
	every := samples / evalStates
	if every < 1 {
		every = 1
	}
	k := 0
	keep := sim.SinkFunc(func(t float64, y []float64) {
		if k%every == 0 && len(c.states) < evalStates {
			c.states = append(c.states, append([]float64(nil), y...))
			c.times = append(c.times, t)
		}
		k++
	})
	if _, err := sim.RunStream(sys, tEnd, samples, keep); err != nil {
		return err
	}
	c.calib, _, _, err = spec.BuildSystem()
	return err
}

// timeEval returns the mean ns of System.Eval over the captured states,
// timed over max(evals, 64) calls capped at 4096.
func (c *famCase) timeEval(evals int) float64 {
	n := min(max(evals, 64), 4096)
	dydt := make([]float64, c.calib.Dim())
	t0 := nanotime()
	for i := 0; i < n; i++ {
		k := i % len(c.states)
		c.calib.Eval(c.times[k], c.states[k], dydt)
	}
	return float64(nanotime()-t0) / float64(n)
}
