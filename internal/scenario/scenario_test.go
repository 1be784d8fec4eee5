package scenario

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/ode"
	"repro/internal/sim"
)

func validSpec() *Spec {
	return &Spec{
		Name:      "test",
		N:         12,
		TComp:     0.8,
		TComm:     0.2,
		Potential: PotentialSpec{Kind: "tanh"},
		Offsets:   []int{-1, 1},
	}
}

func TestValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"small n", func(s *Spec) { s.N = 1 }},
		{"zero period", func(s *Spec) { s.TComp, s.TComm = 0, 0 }},
		{"bad potential", func(s *Spec) { s.Potential.Kind = "magic" }},
		{"desync no sigma", func(s *Spec) { s.Potential = PotentialSpec{Kind: "desync"} }},
		{"empty stencil", func(s *Spec) { s.Offsets = nil }},
		{"bad init", func(s *Spec) { s.Init = "weird" }},
		{"bad jitter", func(s *Spec) { s.Jitter = &JitterSpec{Dist: "cauchy", Amp: 1} }},
		{"delay rank", func(s *Spec) { s.Delays = []DelaySpec{{Rank: 99, Duration: 1}} }},
		{"delay duration", func(s *Spec) { s.Delays = []DelaySpec{{Rank: 1, Duration: 0}} }},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// pomConfig validates a POM spec and assembles its core.Config plus the
// resolved run controls, the pieces BuildSystem turns into a *core.Model.
func pomConfig(t *testing.T, s *Spec) (cfg core.Config, tEnd float64, samples int) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.buildPOMConfig()
	if err != nil {
		t.Fatal(err)
	}
	_, def, err := s.family()
	if err != nil {
		t.Fatal(err)
	}
	tEnd, samples = s.controls(def)
	return cfg, tEnd, samples
}

func TestBuildDefaults(t *testing.T) {
	cfg, tEnd, samples := pomConfig(t, validSpec())
	if cfg.N != 12 || cfg.Potential == nil || cfg.Topology == nil {
		t.Errorf("cfg incomplete: %+v", cfg)
	}
	if tEnd != 150 || samples != 601 {
		t.Errorf("defaults: tEnd=%v samples=%d", tEnd, samples)
	}
}

func TestBuildFullSpec(t *testing.T) {
	s := validSpec()
	s.Potential = PotentialSpec{Kind: "desync", Sigma: 2}
	s.Rendezvous = true
	s.GroupedWaitall = true
	s.Init = "random"
	s.PerturbAmp = 0.05
	s.Delays = []DelaySpec{{Rank: 3, Start: 10, Duration: 2}}
	s.Jitter = &JitterSpec{Dist: "uniform", Amp: 0.1, Seed: 4}
	s.CommLag = 0.05
	s.TEnd = 77
	s.Samples = 321
	cfg, tEnd, samples := pomConfig(t, s)
	if tEnd != 77 || samples != 321 {
		t.Errorf("controls: %v %v", tEnd, samples)
	}
	if cfg.LocalNoise == nil || cfg.InteractionNoise == nil {
		t.Error("noise channels not built")
	}
	// The default delay Extra is 100 periods.
	sum, ok := cfg.LocalNoise.(noise.Sum)
	if !ok || len(sum) != 2 {
		t.Fatalf("LocalNoise = %T", cfg.LocalNoise)
	}
	if d, ok := sum[0].(noise.Delay); !ok || d.Extra != 100 {
		t.Errorf("delay extra = %+v", sum[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Fig2Panel([]int{-2, -1, 1}, false, 1.5)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != s.N || back.Potential.Sigma != 1.5 || len(back.Offsets) != 3 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Init != "random" {
		t.Errorf("init = %q", back.Init)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"n": 4, "bogus": true}`)); err == nil {
		t.Error("want error for unknown field")
	}
	if _, err := Load(strings.NewReader(`{`)); err == nil {
		t.Error("want error for malformed JSON")
	}
	if _, err := Load(strings.NewReader(`{"n": 1}`)); err == nil {
		t.Error("want validation error")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path.json"); err == nil {
		t.Error("want error for missing file")
	}
}

// TestSpecRunsEndToEnd builds and integrates a scenario, checking the
// wavefront physics still emerges from the serialized description.
func TestSpecRunsEndToEnd(t *testing.T) {
	s := validSpec()
	s.Potential = PotentialSpec{Kind: "desync", Sigma: 1.2}
	s.Init = "random"
	s.PerturbAmp = 0.02
	s.PerturbSeed = 3
	s.TEnd = 300
	s.Samples = 301
	sys, tEnd, samples, err := s.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.RunSummary(sys, tEnd, samples, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1.2 / 3
	if mean := sum.MeanAbsGap; math.Abs(mean-want) > 0.12 {
		t.Errorf("gap = %v, want %v", mean, want)
	}
}

// torusPastSides is a torus2d spec whose coupling radius exceeds both
// sides of the 3×2 torus, so its offsets wrap more than once.
const torusPastSides = `{"family":"torus2d","t_end":1,"torus2d":{"nx":3,"ny":2,"radius":3,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"}}}`

// TestTorusRadiusPastSidesRuns checks that the spec builds and runs.
func TestTorusRadiusPastSidesRuns(t *testing.T) {
	spec, err := Load(strings.NewReader(torusPastSides))
	if err != nil {
		t.Fatal(err)
	}
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.RunSummary(sys, tEnd, samples, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Steps == 0 || len(sum.Gaps) != 5 {
		t.Errorf("summary %+v, want solver steps and 5 gaps", sum)
	}
}

// kuramotoZeroStep is a Kuramoto spec whose 1e300 frequencies overflow
// the solver's initial-step norm, so the first step size comes out 0.
const kuramotoZeroStep = `{"family":"kuramoto","kuramoto":{"n":2,"k":1e-300,"freq_mean":1e300,"freq_std":40,"seed":3},"samples":2,"t_end":0.5}`

// TestZeroInitialStepFailsFast checks that a zero step size fails as a
// step-size underflow at once instead of being accepted until MaxSteps.
func TestZeroInitialStepFailsFast(t *testing.T) {
	spec, err := Load(strings.NewReader(kuramotoZeroStep))
	if err != nil {
		t.Fatal(err)
	}
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunStream(sys, tEnd, samples, sim.SinkFunc(func(float64, []float64) {}))
	if !errors.Is(err, ode.ErrStepSizeUnderflow) {
		t.Fatalf("err = %v, want ode.ErrStepSizeUnderflow", err)
	}
	if st.Evals >= 100 {
		t.Errorf("%d evaluations before the error, want < 100", st.Evals)
	}
}
