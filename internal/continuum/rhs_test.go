package continuum

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/sim"
)

// scalarRHS is the pre-kernel right-hand side, kept verbatim as the
// oracle FieldSystem.Eval is pinned against: two interface Eval calls and
// one ω lookup per grid point.
func scalarRHS(f *Field, t float64, th, dth []float64) {
	g := f.Grid
	omega := func(x float64) float64 {
		if f.Omega == nil {
			return mathx.TwoPi
		}
		return f.Omega(x, t)
	}
	if f.Linear {
		d := f.Diffusivity() / (g.A * g.A)
		for i := 0; i < g.M; i++ {
			lap := th[g.left(i)] + th[g.right(i)] - 2*th[i]
			dth[i] = omega(g.X(i)) + d*lap
		}
		return
	}
	for i := 0; i < g.M; i++ {
		coupling := f.Potential.Eval(th[g.left(i)]-th[i]) +
			f.Potential.Eval(th[g.right(i)]-th[i])
		dth[i] = omega(g.X(i)) + f.K*coupling
	}
}

// pulseState is the scenario family's Gaussian delay pulse.
func pulseState(g Grid, amp float64) []float64 {
	th := make([]float64, g.M)
	for i := range th {
		d := (g.X(i) - g.Length()/2) / (3 * g.A)
		th[i] = -amp * math.Exp(-d*d)
	}
	return th
}

// TestEvalMatchesScalarOracle pins FieldSystem.Eval bitwise to the
// scalar loop on pulse and flat states, for both boundary kinds, every
// flux kind, and with and without an ω field.
func TestEvalMatchesScalarOracle(t *testing.T) {
	pots := []potential.Potential{
		potential.NewDesync(1.2),
		potential.Tanh{},
		potential.KuramotoSine{},
		potential.Func{F: math.Atan, ID: "atan"},
	}
	omegas := []func(x, t float64) float64{
		nil,
		func(x, t float64) float64 { return mathx.TwoPi * (1 + 0.1*math.Sin(x+t)) },
	}
	for _, periodic := range []bool{false, true} {
		g := Grid{M: 37, A: 0.7, Periodic: periodic}
		states := map[string][]float64{
			"flat":  make([]float64, g.M),
			"pulse": pulseState(g, 2),
			"steep": pulseState(g, 40),
		}
		for _, p := range pots {
			for _, linear := range []bool{false, true} {
				for oi, om := range omegas {
					f := &Field{Grid: g, Potential: p, K: 2, Linear: linear, Omega: om}
					sys, err := f.System(make([]float64, g.M))
					if err != nil {
						t.Fatal(err)
					}
					for name, th := range states {
						for _, tm := range []float64{0, 3.25} {
							want := make([]float64, g.M)
							got := make([]float64, g.M)
							scalarRHS(f, tm, th, want)
							sys.Eval(tm, th, got)
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("periodic=%v %s linear=%v omega#%d %s t=%v: dθ[%d] = %v, oracle %v",
										periodic, p.Name(), linear, oi, name, tm, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalZeroAllocs pins FieldSystem.Eval's steady state to zero
// allocations on both flux kinds, with the built 2π row and with an ω
// field that refills the row on every call.
func TestEvalZeroAllocs(t *testing.T) {
	g := Grid{M: 96, A: 1}
	th := pulseState(g, 2)
	dth := make([]float64, g.M)
	omegas := []func(x, t float64) float64{
		nil,
		func(x, t float64) float64 { return mathx.TwoPi * (1 + 0.1*math.Sin(x+t)) },
	}
	for _, linear := range []bool{false, true} {
		for oi, om := range omegas {
			f := &Field{Grid: g, Potential: potential.NewDesync(1.2), K: 2, Linear: linear, Omega: om}
			sys, err := f.System(th)
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(100, func() { sys.Eval(0, th, dth) }); a != 0 {
				t.Fatalf("linear=%v omega#%d: Eval allocates %v objects per call, want 0", linear, oi, a)
			}
		}
	}
}

// TestSystemsFromOneFieldRunConcurrently runs two systems built from one
// Field at the same time (the race detector checks that they share no
// scratch) and requires both to reproduce a serial run bitwise.
func TestSystemsFromOneFieldRunConcurrently(t *testing.T) {
	f := &Field{Grid: Grid{M: 48, A: 1}, Potential: potential.NewDesync(1.2), K: 2}
	th0 := pulseState(f.Grid, 2)
	want := solve(t, f, th0, 10, 21)
	var wg sync.WaitGroup
	results := make([]*sim.Result, 2)
	errs := make([]error, 2)
	for w := range results {
		sys, err := f.System(th0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = sim.Run(sys, 10, 21)
		}()
	}
	wg.Wait()
	for w, res := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if res.Stats != want.Stats {
			t.Fatalf("system %d: stats %+v, serial %+v", w, res.Stats, want.Stats)
		}
		for k := range want.Ys {
			for i, v := range want.Ys[k] {
				if math.Float64bits(res.Ys[k][i]) != math.Float64bits(v) {
					t.Fatalf("system %d sample %d point %d: %v, serial %v", w, k, i, res.Ys[k][i], v)
				}
			}
		}
	}
}

// BenchmarkFieldRHS measures one FieldSystem.Eval on the continuum
// example's shape (M = 96, desync σ = 1.2, Neumann, pulse state) next to
// the scalar oracle loop.
func BenchmarkFieldRHS(b *testing.B) {
	f := &Field{Grid: Grid{M: 96, A: 1}, Potential: potential.NewDesync(1.2), K: 2}
	th := pulseState(f.Grid, 2)
	dth := make([]float64, f.Grid.M)
	sys, err := f.System(th)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys.Eval(0, th, dth)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scalarRHS(f, 0, th, dth)
		}
	})
}
