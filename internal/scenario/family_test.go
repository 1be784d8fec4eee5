package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// familySpecs returns one representative spec per registered family.
func familySpecs() map[string]*Spec {
	pom := validSpec()
	kur := KuramotoScenario(16, 1.5, 7)
	cont := ContinuumScenario(24, 2, PotentialSpec{Kind: "tanh"})
	torus := Torus2DScenario(4, 3, 1.2)
	lin := LinstabScenario(10, 1.5)
	lin.Linstab.Points = 5
	clu := ClusterScenario(6, 8)
	specs := map[string]*Spec{
		"pom": pom, "kuramoto": kur, "continuum": cont,
		"torus2d": torus, "linstab": lin, "cluster": clu,
	}
	for _, s := range specs {
		s.TEnd = 5
		s.Samples = 11
	}
	return specs
}

// TestFamilyRegistry checks the registry surface: all built-in families
// are present and unknown families are rejected with a clear error.
func TestFamilyRegistry(t *testing.T) {
	fams := Families()
	for _, want := range []string{"pom", "kuramoto", "continuum", "torus2d", "linstab", "cluster"} {
		found := false
		for _, f := range fams {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("family %q not registered (have %v)", want, fams)
		}
	}
	bad := &Spec{Name: "x", Family: "ising"}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ising") {
		t.Errorf("unknown family: err = %v", err)
	}
	if _, _, _, err := bad.BuildSystem(); err == nil {
		t.Error("BuildSystem must reject an unknown family")
	}
}

// TestUnknownFamilyErrorListsRegistered is the regression pin for the
// discoverability fix: an unknown-family error from BuildSystem (and
// Validate) names every registered family, so a typo in a config file
// tells the user what would have worked.
func TestUnknownFamilyErrorListsRegistered(t *testing.T) {
	_, _, _, err := (&Spec{Name: "x", Family: "ising"}).BuildSystem()
	if err == nil {
		t.Fatal("want error for unknown family")
	}
	for _, name := range Families() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered family %q", err, name)
		}
	}
}

// TestFamilyRoundTrips is the satellite pin: for every family, JSON
// encode → decode → build → run 3 steps works and the decoded spec
// builds the same system (same dimension, same initial state bits).
func TestFamilyRoundTrips(t *testing.T) {
	for name, spec := range familySpecs() {
		var buf bytes.Buffer
		if err := spec.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v\njson: %s", name, err, buf.String())
		}
		sys, tEnd, samples, err := back.BuildSystem()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if tEnd != 5 || samples != 11 {
			t.Errorf("%s: run controls lost: tEnd=%v samples=%d", name, tEnd, samples)
		}
		orig, _, _, err := spec.BuildSystem()
		if err != nil {
			t.Fatalf("%s: build original: %v", name, err)
		}
		if sys.Dim() != orig.Dim() {
			t.Fatalf("%s: dimension changed across round trip: %d vs %d", name, sys.Dim(), orig.Dim())
		}
		y0, y1 := orig.InitialState(), sys.InitialState()
		for i := range y0 {
			if math.Float64bits(y0[i]) != math.Float64bits(y1[i]) {
				t.Fatalf("%s: initial state differs at %d after round trip", name, i)
			}
		}
		// Run 3 sample steps through the unified runtime.
		rows := 0
		if _, err := sim.RunStream(sys, 0.5, 3, sim.SinkFunc(func(_ float64, y []float64) {
			rows++
			for _, v := range y {
				if math.IsNaN(v) {
					t.Fatalf("%s: NaN state", name)
				}
			}
		})); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if rows != 3 {
			t.Fatalf("%s: streamed %d rows, want 3", name, rows)
		}
	}
}

// TestFamilyDefaults checks the per-family run-control defaults.
func TestFamilyDefaults(t *testing.T) {
	kur := KuramotoScenario(8, 1, 1)
	if _, tEnd, samples, err := kur.BuildSystem(); err != nil || tEnd != 40 || samples != 201 {
		t.Errorf("kuramoto defaults: tEnd=%v samples=%d err=%v", tEnd, samples, err)
	}
	pom := validSpec()
	if _, tEnd, samples, err := pom.BuildSystem(); err != nil || tEnd != 150 || samples != 601 {
		t.Errorf("pom defaults: tEnd=%v samples=%d err=%v", tEnd, samples, err)
	}
	torus := Torus2DScenario(4, 3, 1.2)
	if _, tEnd, samples, err := torus.BuildSystem(); err != nil || tEnd != 150 || samples != 601 {
		t.Errorf("torus2d defaults: tEnd=%v samples=%d err=%v", tEnd, samples, err)
	}
	lin := LinstabScenario(8, 1.5)
	lin.Linstab.Points = 5
	if _, tEnd, samples, err := lin.BuildSystem(); err != nil || tEnd != 1 || samples != 201 {
		t.Errorf("linstab defaults: tEnd=%v samples=%d err=%v", tEnd, samples, err)
	}
}

// TestClusterAdoptsMakespan checks the TEndSuggester hook: a cluster
// spec without t_end runs exactly to the simulated makespan, while an
// explicit t_end wins over the suggestion.
func TestClusterAdoptsMakespan(t *testing.T) {
	clu := ClusterScenario(6, 8)
	sys, tEnd, samples, err := clu.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	sug, ok := sys.(TEndSuggester)
	if !ok {
		t.Fatal("cluster system must suggest its t_end")
	}
	if tEnd != sug.SuggestTEnd() || tEnd <= 0 {
		t.Errorf("tEnd = %v, suggested makespan %v", tEnd, sug.SuggestTEnd())
	}
	if samples != 601 {
		t.Errorf("samples = %d, want 601", samples)
	}
	// The PISOLVER estimate (iters × 50 ms) is a lower bound on the
	// makespan the suggestion replaces.
	if tEnd < float64(clu.Cluster.Iters)*50e-3 {
		t.Errorf("makespan %v below the compute-only bound", tEnd)
	}

	clu.TEnd = 2.5
	if _, tEnd, _, err := clu.BuildSystem(); err != nil || tEnd != 2.5 {
		t.Errorf("explicit t_end: got %v err=%v, want 2.5", tEnd, err)
	}
}

// TestFamilyValidation covers the per-family sub-spec checks.
func TestFamilyValidation(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
	}{
		{"kuramoto missing section", &Spec{Family: "kuramoto"}},
		{"kuramoto small n", &Spec{Family: "kuramoto", Kuramoto: &KuramotoSpec{N: 1, K: 1}}},
		{"kuramoto NaN k", &Spec{Family: "kuramoto", Kuramoto: &KuramotoSpec{N: 4, K: math.NaN()}}},
		{"kuramoto negative std", &Spec{Family: "kuramoto", Kuramoto: &KuramotoSpec{N: 4, K: 1, FreqStd: -1}}},
		{"continuum missing section", &Spec{Family: "continuum"}},
		{"continuum tiny grid", &Spec{Family: "continuum", Continuum: &ContinuumSpec{M: 2, A: 1, K: 1, Potential: PotentialSpec{Kind: "tanh"}}}},
		{"continuum bad potential", &Spec{Family: "continuum", Continuum: &ContinuumSpec{M: 8, A: 1, K: 1, Potential: PotentialSpec{Kind: "magic"}}}},
		{"continuum bad init", &Spec{Family: "continuum", Continuum: &ContinuumSpec{M: 8, A: 1, K: 1, Potential: PotentialSpec{Kind: "tanh"}, Init: "zigzag"}}},
		{"continuum pulse without amp", &Spec{Family: "continuum", Continuum: &ContinuumSpec{M: 8, A: 1, K: 1, Potential: PotentialSpec{Kind: "tanh"}, Init: "pulse"}}},
		{"negative t_end", func() *Spec { s := KuramotoScenario(8, 1, 1); s.TEnd = -2; return s }()},
		{"NaN t_end", func() *Spec { s := KuramotoScenario(8, 1, 1); s.TEnd = math.NaN(); return s }()},
		{"torus2d missing section", &Spec{Family: "torus2d"}},
		{"torus2d tiny grid", func() *Spec { s := Torus2DScenario(1, 3, 1.2); return s }()},
		{"torus2d oversized radius", func() *Spec { s := Torus2DScenario(3, 3, 1.2); s.Torus2D.Radius = 9; return s }()},
		{"torus2d zero period", func() *Spec {
			s := Torus2DScenario(3, 3, 1.2)
			s.Torus2D.TComp, s.Torus2D.TComm = 0, 0
			return s
		}()},
		{"torus2d bad potential", func() *Spec { s := Torus2DScenario(3, 3, 1.2); s.Torus2D.Potential.Kind = "magic"; return s }()},
		{"torus2d bad init", func() *Spec { s := Torus2DScenario(3, 3, 1.2); s.Torus2D.Init = "zigzag"; return s }()},
		{"torus2d delay rank", func() *Spec {
			s := Torus2DScenario(3, 3, 1.2)
			s.Torus2D.Delays = []DelaySpec{{Rank: 99, Duration: 1}}
			return s
		}()},
		{"torus2d bad jitter", func() *Spec {
			s := Torus2DScenario(3, 3, 1.2)
			s.Torus2D.Jitter = &JitterSpec{Dist: "cauchy", Amp: 1}
			return s
		}()},
		{"linstab missing section", &Spec{Family: "linstab"}},
		{"linstab small n", func() *Spec { s := LinstabScenario(1, 1.5); return s }()},
		{"linstab no stencil", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.Offsets = nil; return s }()},
		{"linstab reversed range", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.From, s.Linstab.To = 2, 1; return s }()},
		{"linstab NaN range", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.To = math.NaN(); return s }()},
		{"linstab one point", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.Points = 1; return s }()},
		{"linstab bad scan", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.Scan = "spiral"; return s }()},
		{"linstab NaN coupling", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.K = math.NaN(); return s }()},
		{"cluster missing section", &Spec{Family: "cluster"}},
		{"cluster small n", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.N = 1; return s }()},
		{"cluster zero iters", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.Iters = 0; s.Cluster.Delays = nil; return s }()},
		{"cluster bad machine", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.Machine = "cray"; return s }()},
		{"cluster bad kernel", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.Kernel = "linpack"; return s }()},
		{"cluster delay rank", func() *Spec {
			s := ClusterScenario(6, 8)
			s.Cluster.Delays = []ClusterDelaySpec{{Rank: 99, Iter: 0, Extra: 1}}
			return s
		}()},
		{"cluster delay iter", func() *Spec {
			s := ClusterScenario(6, 8)
			s.Cluster.Delays = []ClusterDelaySpec{{Rank: 1, Iter: 99, Extra: 1}}
			return s
		}()},
		{"cluster zero-extra delay", func() *Spec {
			s := ClusterScenario(6, 8)
			s.Cluster.Delays = []ClusterDelaySpec{{Rank: 1, Iter: 1}}
			return s
		}()},
		{"cluster negative msg bytes", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.MsgBytes = -1; return s }()},
		{"linstab asymmetric stencil", func() *Spec { s := LinstabScenario(8, 1.5); s.Linstab.Offsets = []int{1}; return s }()},
		{"cluster zero offset", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.Offsets = []int{0}; return s }()},
		{"cluster duplicate offset", func() *Spec { s := ClusterScenario(6, 8); s.Cluster.Offsets = []int{1, 1}; return s }()},
		{"cluster ranks exceed machine", func() *Spec {
			s := ClusterScenario(30, 8)
			s.Cluster.Sockets = 1 // 30 ranks on one 10-core Meggie socket
			s.Cluster.Delays = nil
			return s
		}()},
		{"mismatched extra section", func() *Spec {
			s := ContinuumScenario(16, 1, PotentialSpec{Kind: "tanh"})
			s.Kuramoto = &KuramotoSpec{N: 8, K: 1}
			return s
		}()},
		{"pom with sub-spec section", func() *Spec {
			s := validSpec()
			s.Cluster = &ClusterSpec{N: 4, Iters: 2}
			return s
		}()},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

// TestValidationRejectsNonFinitePotentialAndPulse is the regression test
// for NaN-poisoned programmatic specs: JSON cannot carry NaN, but Go
// callers can, and before the fix a NaN sigma or pulse parameter passed
// every sign check and produced silent all-NaN runs.
func TestValidationRejectsNonFinitePotentialAndPulse(t *testing.T) {
	bad := []*Spec{
		ContinuumScenario(16, 1, PotentialSpec{Kind: "desync", Sigma: math.NaN()}),
		ContinuumScenario(16, 1, PotentialSpec{Kind: "desync", Sigma: math.Inf(1)}),
		func() *Spec {
			s := ContinuumScenario(16, 1, PotentialSpec{Kind: "tanh"})
			s.Continuum.PulseAmp = math.NaN()
			return s
		}(),
		func() *Spec {
			s := ContinuumScenario(16, 1, PotentialSpec{Kind: "tanh"})
			s.Continuum.PulseWidth = math.Inf(1)
			return s
		}(),
		func() *Spec {
			s := ContinuumScenario(16, 1, PotentialSpec{Kind: "tanh"})
			s.Continuum.PulseCenter = math.NaN()
			return s
		}(),
		func() *Spec {
			s := validSpec()
			s.Potential = PotentialSpec{Kind: "desync", Sigma: math.NaN()}
			return s
		}(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d: want validation error for non-finite parameter", i)
		}
	}
}
