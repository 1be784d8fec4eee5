package main

import (
	"context"
)

// phase is one of the three parts every run measures.
type phase interface {
	// setup prepares the phase, checked. It is timed into setup_s and
	// repeated, so each call must leave the phase ready.
	setup(ctx context.Context, rep *report) error
	// step does one unit of measured work: a family pass, a sweep round
	// or a serve epoch. tr is non-nil for traced steps.
	step(ctx context.Context, tr *Tracer, rep *report) error
	// finish sets the phase's metrics. With a tracer it also returns the
	// traced end-to-end time over the untraced one.
	finish(rep *report, tr *Tracer) (tracedRatio float64)
}

// runSetups is how many times a run sets up; setup_s is their median.
const runSetups = 5

// runWorkload sets every phase up runSetups times, then interleaves
// their steps until the time is up. The next step goes to the phase that
// has had the least wall time so far, so every phase samples the whole
// run. With a tracer, each phase alternates untraced and traced steps,
// at least one of each.
func runWorkload(ctx context.Context, o *options, tr *Tracer) (*report, error) {
	rep := newReport()
	phases := []phase{newFamilyPhase(o), newSweepPhase(o), newServePhase(o)}
	var setups []float64
	for i := 0; i < runSetups; i++ {
		t0 := nanotime()
		for _, p := range phases {
			if err := p.setup(ctx, rep); err != nil {
				return nil, err
			}
		}
		setups = append(setups, float64(nanotime()-t0)/1e9)
	}
	rep.set("setup_s", median(setups))

	minSteps := 1
	if tr != nil {
		minSteps = 2
	}
	steps := make([]int, len(phases))
	used := make([]int64, len(phases))
	deadline := nanotime() + int64(o.seconds)
	next := func() int {
		if nanotime() < deadline {
			least := 0
			for i := range phases {
				if used[i] < used[least] {
					least = i
				}
			}
			return least
		}
		for i := range phases {
			if steps[i] < minSteps {
				return i
			}
		}
		return -1
	}
	for i := next(); i >= 0; i = next() {
		var str *Tracer
		if tr != nil && steps[i]%2 == 1 {
			str = tr
		}
		t0 := nanotime()
		if err := phases[i].step(ctx, str, rep); err != nil {
			return nil, err
		}
		used[i] += nanotime() - t0
		steps[i]++
	}

	var ratios float64
	for _, p := range phases {
		ratios += p.finish(rep, tr)
	}
	if tr != nil {
		rep.set("trace.overhead_pct", (ratios/float64(len(phases))-1)*100)
	}
	return rep, nil
}
