package sim

import (
	"math"
	"testing"

	"repro/internal/ode"
)

// osc is a minimal test system: n uncoupled rotators with a weak
// nonlinear coupling to the mean, so trajectories are smooth but not
// trivially linear.
type osc struct {
	n        int
	released int
	solver   Solver
}

func (o *osc) Dim() int { return o.n }

func (o *osc) InitialState() []float64 {
	y0 := make([]float64, o.n)
	for i := range y0 {
		y0[i] = 0.1 * float64(i)
	}
	return y0
}

func (o *osc) Eval(_ float64, y, dydt []float64) {
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i := range y {
		dydt[i] = 1 + 0.1*float64(i) + 0.05*math.Sin(mean-y[i])
	}
}

func (o *osc) Solver() Solver { return o.solver }

func (o *osc) Release() { o.released++ }

// lagSys is a scalar DDE y' = -y(t-1), the textbook delayed decay.
type lagSys struct{}

func (lagSys) Dim() int                { return 1 }
func (lagSys) InitialState() []float64 { return []float64{1} }
func (lagSys) Eval(_ float64, _, dydt []float64) {
	dydt[0] = 0 // never called: MaxDelay > 0 routes to EvalDelayed
}
func (lagSys) MaxDelay() float64 { return 1 }
func (lagSys) EvalDelayed(t float64, y []float64, past ode.Past, dydt []float64) {
	dydt[0] = -past.Eval(0, t-1)
}

// TestRunStreamMatchesRun pins the core streaming invariant at the sim
// layer: the rows streamed to a sink are bit-for-bit the rows Run
// materializes, for both the ODE and the DDE path.
func TestRunStreamMatchesRun(t *testing.T) {
	systems := map[string]System{
		"ode": &osc{n: 5},
		"dde": lagSys{},
	}
	for name, sys := range systems {
		res, err := Run(sys, 10, 41)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ts []float64
		var ys [][]float64
		_, err = RunStream(sys, 10, 41, SinkFunc(func(tt float64, y []float64) {
			ts = append(ts, tt)
			ys = append(ys, append([]float64(nil), y...))
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ts) != len(res.Ts) {
			t.Fatalf("%s: %d streamed rows vs %d materialized", name, len(ts), len(res.Ts))
		}
		for k := range ts {
			if math.Float64bits(ts[k]) != math.Float64bits(res.Ts[k]) {
				t.Fatalf("%s: sample time %d differs: %v vs %v", name, k, ts[k], res.Ts[k])
			}
			for i := range ys[k] {
				if math.Float64bits(ys[k][i]) != math.Float64bits(res.Ys[k][i]) {
					t.Fatalf("%s: row %d component %d differs: %v vs %v",
						name, k, i, ys[k][i], res.Ys[k][i])
				}
			}
		}
	}
}

// TestRunReleasesSystem checks the resource contract: Release is called
// exactly once per Run/RunStream invocation, success or not.
func TestRunReleasesSystem(t *testing.T) {
	o := &osc{n: 3}
	if _, err := Run(o, 5, 11); err != nil {
		t.Fatal(err)
	}
	if o.released != 1 {
		t.Fatalf("released %d times after Run, want 1", o.released)
	}
	if _, err := RunStream(o, 5, 11, SinkFunc(func(float64, []float64) {})); err != nil {
		t.Fatal(err)
	}
	if o.released != 2 {
		t.Fatalf("released %d times after RunStream, want 2", o.released)
	}
	// Error paths release too — a pooled system rejected by a bad
	// argument inside a sweep loop must not leak its workers.
	if _, err := Run(o, -1, 11); err == nil {
		t.Fatal("want error for negative tEnd")
	}
	if o.released != 3 {
		t.Fatalf("released %d times after failed Run, want 3", o.released)
	}
	if _, err := RunStream(o, 5, 11, nil); err == nil {
		t.Fatal("want error for nil sink")
	}
	if o.released != 4 {
		t.Fatalf("released %d times after failed RunStream, want 4", o.released)
	}
}

// TestRunStreamValidation covers the argument checks.
func TestRunStreamValidation(t *testing.T) {
	o := &osc{n: 2}
	if _, err := RunStream(o, 1, 5, nil); err == nil {
		t.Error("want error for nil sink")
	}
	for _, tEnd := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := RunStream(o, tEnd, 5, SinkFunc(func(float64, []float64) {})); err == nil {
			t.Errorf("want error for tEnd = %v", tEnd)
		}
	}
	if _, err := Run(o, 0, 5); err == nil {
		t.Error("want error for tEnd <= 0")
	}
}

// TestTunedSolverIsHonored pins that a system's Solver settings reach the
// integrator: a crude tolerance does measurably less work than a tight
// one.
func TestTunedSolverIsHonored(t *testing.T) {
	tight := &osc{n: 4, solver: Solver{Atol: 1e-12, Rtol: 1e-12}}
	crude := &osc{n: 4, solver: Solver{Atol: 1e-3, Rtol: 1e-3}}
	rt, err := Run(tight, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(crude, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Evals <= rc.Stats.Evals {
		t.Errorf("tight tolerance did %d evals, crude %d — settings not honored",
			rt.Stats.Evals, rc.Stats.Evals)
	}
	// Hmax cap: with Hmax = 0.01 a 20-unit run needs ≥ 2000 steps.
	capped := &osc{n: 4, solver: Solver{Hmax: 0.01}}
	rcap, err := Run(capped, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rcap.Stats.Steps < 2000 {
		t.Errorf("Hmax-capped run took %d steps, want >= 2000", rcap.Stats.Steps)
	}
}

// TestRunSummaryMatchesAccumulators checks the convenience reduction
// against hand-run accumulators over the same stream.
func TestRunSummaryMatchesAccumulators(t *testing.T) {
	o := &osc{n: 6}
	sum, err := RunSummary(o, 15, 61, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	spread := &SpreadAccumulator{}
	order := &OrderAccumulator{}
	if _, err := RunStream(o, 15, 61, Tee(spread, order)); err != nil {
		t.Fatal(err)
	}
	if sum.FinalSpread != spread.Final() || sum.AsymptoticSpread != spread.Asymptotic() {
		t.Errorf("spread mismatch: %+v vs final=%v asym=%v", sum, spread.Final(), spread.Asymptotic())
	}
	if sum.FinalOrder != order.Final() || sum.MinOrder != order.Min() {
		t.Errorf("order mismatch: %+v vs final=%v min=%v", sum, order.Final(), order.Min())
	}
	v := sum.Vector()
	if len(v) != 8 || v[0] != sum.FinalSpread || v[7] != sum.MeanAbsGap {
		t.Errorf("vector layout wrong: %v", v)
	}
}

// TestOrderAccumulatorAsymptoticWindow pins the Asymptotic window against
// the materialized forward sum over the retained timeline: same start
// index, same addition order.
func TestOrderAccumulatorAsymptoticWindow(t *testing.T) {
	o := &osc{n: 5}
	acc := &OrderAccumulator{FinalFraction: 0.25, KeepTimeline: true}
	if _, err := RunStream(o, 12, 33, acc); err != nil {
		t.Fatal(err)
	}
	n := len(acc.Timeline)
	start := n - int(float64(n)*0.25)
	var want float64
	for k := start; k < n; k++ {
		want += acc.Timeline[k]
	}
	want /= float64(n - start)
	if got := acc.Asymptotic(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Asymptotic = %v, want %v (bitwise)", got, want)
	}
}
