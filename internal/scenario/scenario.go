package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/continuum"
	"repro/internal/core"
	"repro/internal/kuramoto"
	"repro/internal/noise"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PotentialSpec selects and parameterizes the interaction potential.
type PotentialSpec struct {
	// Kind is "tanh", "desync", or "kuramoto".
	Kind string `json:"kind"`
	// Sigma is the desync interaction horizon (required for "desync").
	Sigma float64 `json:"sigma,omitempty"`
}

// validate checks the potential selection; path is the JSON path of the
// potential block ("potential", "continuum.potential", …) that failing
// fields are reported under. The sigma check is written NaN-proof
// (`!(x > 0)` rather than `x <= 0`): JSON cannot encode NaN, but Go
// callers construct specs directly and a NaN horizon would silently
// poison every potential evaluation.
func (p PotentialSpec) validate(path string) error {
	switch p.Kind {
	case "tanh", "kuramoto":
	case "desync":
		if !(p.Sigma > 0) || math.IsInf(p.Sigma, 0) {
			return fieldErrf(path+".sigma", "scenario: desync potential needs finite sigma > 0, got %v", p.Sigma)
		}
	default:
		return fieldErrf(path+".kind", "scenario: unknown potential %q", p.Kind)
	}
	return nil
}

// build returns the selected potential (validate must have passed).
func (p PotentialSpec) build() potential.Potential {
	switch p.Kind {
	case "desync":
		return potential.NewDesync(p.Sigma)
	case "kuramoto":
		return potential.KuramotoSine{}
	default:
		return potential.Tanh{}
	}
}

// DelaySpec is a one-off delay injection.
type DelaySpec struct {
	Rank     int     `json:"rank"`
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	// Extra is the additional period during the window; 0 selects 100
	// periods (an effective freeze).
	Extra float64 `json:"extra,omitempty"`
}

// JitterSpec is frozen background period noise.
type JitterSpec struct {
	// Dist is "gaussian", "uniform", or "exponential".
	Dist string `json:"dist"`
	// Amp is the distribution scale.
	Amp float64 `json:"amp"`
	// Refresh is the cell length; 0 selects one period.
	Refresh float64 `json:"refresh,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// KuramotoSpec carries the Kuramoto-family parameters of a Spec.
type KuramotoSpec struct {
	// N is the oscillator count and K the global coupling.
	N int     `json:"n"`
	K float64 `json:"k"`
	// FreqMean and FreqStd parameterize the Gaussian g(ω).
	FreqMean float64 `json:"freq_mean,omitempty"`
	FreqStd  float64 `json:"freq_std,omitempty"`
	// Seed makes frequency and phase draws reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// SpreadInitial draws initial phases uniformly on [0, 2π).
	SpreadInitial bool `json:"spread_initial,omitempty"`
}

// ContinuumSpec carries the continuum-family parameters of a Spec.
type ContinuumSpec struct {
	// M is the grid point count and A the lattice spacing.
	M int     `json:"m"`
	A float64 `json:"a"`
	// Periodic selects ring boundaries (zero-flux Neumann otherwise).
	Periodic bool `json:"periodic,omitempty"`
	// K is the per-partner coupling strength.
	K float64 `json:"k"`
	// Linear selects the leading-order PDE instead of the full flux.
	Linear bool `json:"linear,omitempty"`
	// Potential selects V (its V'(0) sets the linear diffusivity).
	Potential PotentialSpec `json:"potential"`
	// Init is "flat" (default, θ = 0 everywhere) or "pulse" (a localized
	// Gaussian lag packet — the continuum idle-wave seed).
	Init string `json:"init,omitempty"`
	// PulseAmp, PulseCenter, and PulseWidth parameterize "pulse"
	// (θ₀(x) = −Amp·exp(−((x−Center)/Width)²)); Center 0 selects the
	// domain midpoint and Width 0 selects 3 lattice spacings.
	PulseAmp    float64 `json:"pulse_amp,omitempty"`
	PulseCenter float64 `json:"pulse_center,omitempty"`
	PulseWidth  float64 `json:"pulse_width,omitempty"`
}

// Spec is a complete, serializable scenario: a model family plus its
// parameters and run controls. The top-level fields other than Name,
// Family, TEnd, and Samples are the POM-family parameters (the original
// Spec layout, so existing JSON files load unchanged); the Kuramoto and
// Continuum sub-specs carry the other families.
type Spec struct {
	// Name labels the scenario in outputs.
	Name string `json:"name"`
	// Family selects the model family: "pom" (default when empty),
	// "kuramoto", "continuum", "torus2d", "linstab", or "cluster" — or
	// any family added via RegisterFamily. SCENARIOS.md documents every
	// family's JSON surface.
	Family string `json:"family,omitempty"`
	// N is the oscillator count.
	N int `json:"n,omitempty"`
	// TComp and TComm are the phase durations.
	TComp float64 `json:"tcomp,omitempty"`
	TComm float64 `json:"tcomm,omitempty"`
	// Potential selects V. (omitzero, not omitempty: encoding/json never
	// treats a non-pointer struct as empty, so omitempty would silently
	// emit a junk `"potential": {"kind": ""}` block in non-POM specs.)
	Potential PotentialSpec `json:"potential,omitzero"`
	// Offsets is the communication stencil; Periodic wraps it.
	Offsets  []int `json:"offsets,omitempty"`
	Periodic bool  `json:"periodic,omitempty"`
	// Rendezvous selects β = 2; GroupedWaitall selects κ = max|d|.
	Rendezvous     bool `json:"rendezvous,omitempty"`
	GroupedWaitall bool `json:"grouped_waitall,omitempty"`
	// CouplingOverride replaces v_p when positive; Gain scales Eq. (2)'s
	// 1/N normalization (0 = default N).
	CouplingOverride float64 `json:"coupling_override,omitempty"`
	Gain             float64 `json:"gain,omitempty"`
	// Delays lists one-off injections; Jitter adds background noise;
	// CommLag adds a constant interaction delay τ.
	Delays  []DelaySpec `json:"delays,omitempty"`
	Jitter  *JitterSpec `json:"jitter,omitempty"`
	CommLag float64     `json:"comm_lag,omitempty"`
	// Init is "sync" (default), "desync", or "random"; PerturbAmp and
	// PerturbSeed parameterize "random".
	Init        string  `json:"init,omitempty"`
	PerturbAmp  float64 `json:"perturb_amp,omitempty"`
	PerturbSeed uint64  `json:"perturb_seed,omitempty"`
	// Kuramoto, Continuum, Torus2D, Linstab, and Cluster carry the
	// non-POM family parameters; exactly the sub-spec matching Family may
	// be set.
	Kuramoto  *KuramotoSpec  `json:"kuramoto,omitempty"`
	Continuum *ContinuumSpec `json:"continuum,omitempty"`
	Torus2D   *Torus2DSpec   `json:"torus2d,omitempty"`
	Linstab   *LinstabSpec   `json:"linstab,omitempty"`
	Cluster   *ClusterSpec   `json:"cluster,omitempty"`
	// TEnd and Samples control the integration. Zero selects the family
	// default (POM: 150 periods / 601 samples; others: 40 time units /
	// 201 samples).
	TEnd    float64 `json:"t_end,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// FamilyDef describes one registered model family: how to validate a
// Spec's family-specific section and how to build it into a sim.System
// plus run-control defaults.
type FamilyDef struct {
	// Validate checks the family-specific Spec fields.
	Validate func(s *Spec) error
	// Build constructs the sim.System (Validate has passed).
	Build func(s *Spec) (sim.System, error)
	// DefaultTEnd and DefaultSamples are used when the Spec leaves TEnd /
	// Samples zero. DefaultTEnd may inspect the spec (the POM default is
	// 150 natural periods); a built system implementing TEndSuggester
	// overrides the default with its post-build knowledge.
	DefaultTEnd    func(s *Spec) float64
	DefaultSamples int
}

// families is the model-family registry. Access is not synchronized:
// RegisterFamily is meant for init-time registration, like
// database/sql.Register.
var families = map[string]FamilyDef{}

// RegisterFamily adds (or replaces) a model family under the given name.
// It panics on an empty name or nil hooks — registration errors are
// programmer errors.
func RegisterFamily(name string, def FamilyDef) {
	if name == "" || def.Validate == nil || def.Build == nil {
		panic("scenario: RegisterFamily needs a name and Validate/Build hooks")
	}
	families[name] = def
}

// Families returns the registered family names, sorted.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// family resolves the spec's family name ("" means "pom").
func (s *Spec) family() (string, FamilyDef, error) {
	name := s.Family
	if name == "" {
		name = "pom"
	}
	def, ok := families[name]
	if !ok {
		return "", FamilyDef{}, fieldErrf("family", "scenario: unknown family %q (registered: %v)", name, Families())
	}
	return name, def, nil
}

// validateControls checks the family-independent run controls and the
// sub-spec exclusivity rule: only the section matching the resolved
// family may be set. Without the check a stray extra section would pass
// validation and then mislead anything that discriminates on section
// presence (pomsim's per-family sinks and archive params, readers of
// saved specs).
func (s *Spec) validateControls(family string) error {
	if s.TEnd < 0 || math.IsNaN(s.TEnd) || math.IsInf(s.TEnd, 0) {
		return fieldErrf("t_end", "scenario: bad t_end %v", s.TEnd)
	}
	if s.Samples < 0 {
		return fieldErrf("samples", "scenario: negative samples %d", s.Samples)
	}
	sections := []struct {
		name string
		set  bool
	}{
		{"kuramoto", s.Kuramoto != nil},
		{"continuum", s.Continuum != nil},
		{"torus2d", s.Torus2D != nil},
		{"linstab", s.Linstab != nil},
		{"cluster", s.Cluster != nil},
	}
	for _, sec := range sections {
		if sec.set && sec.name != family {
			return fieldErrf(sec.name, "scenario: family %q must not carry a %q section", family, sec.name)
		}
	}
	return nil
}

// FamilyName returns the spec's resolved family name (the empty name
// resolves to "pom"). Unknown families return the same field error as
// Validate.
func (s *Spec) FamilyName() (string, error) {
	name, _, err := s.family()
	return name, err
}

// Validate checks the spec without building it.
func (s *Spec) Validate() error {
	name, def, err := s.family()
	if err != nil {
		return err
	}
	if err := s.validateControls(name); err != nil {
		return err
	}
	return def.Validate(s)
}

// controls resolves TEnd/Samples against the family defaults.
func (s *Spec) controls(def FamilyDef) (tEnd float64, samples int) {
	tEnd = s.TEnd
	if tEnd == 0 {
		tEnd = def.DefaultTEnd(s)
	}
	samples = s.Samples
	if samples == 0 {
		samples = def.DefaultSamples
	}
	return tEnd, samples
}

// TEndSuggester is implemented by built systems that know their natural
// run length only after building — the cluster family's trace replay
// learns its makespan from the event simulation. When the spec leaves
// t_end zero, BuildSystem prefers the suggestion over the family's
// DefaultTEnd estimate. An explicit t_end always wins.
type TEndSuggester interface {
	SuggestTEnd() float64
}

// BuildSystem builds the spec into a sim.System plus run controls,
// uniformly over every registered family — the entry point the unified
// streaming/sweep/archive stack and cmd/pomsim consume. Each layer runs
// once: family resolution, control and family validation, then the
// family's Build hook.
func (s *Spec) BuildSystem() (sys sim.System, tEnd float64, samples int, err error) {
	name, def, err := s.family()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := s.validateControls(name); err != nil {
		return nil, 0, 0, err
	}
	if err := def.Validate(s); err != nil {
		return nil, 0, 0, err
	}
	sys, err = def.Build(s)
	if err != nil {
		return nil, 0, 0, err
	}
	tEnd, samples = s.controls(def)
	if s.TEnd == 0 {
		if sug, ok := sys.(TEndSuggester); ok {
			if v := sug.SuggestTEnd(); v > 0 {
				tEnd = v
			}
		}
	}
	return sys, tEnd, samples, nil
}

// pomDefaultTEnd and pomDefaultSamples are the POM run-control defaults.
func pomDefaultTEnd(s *Spec) float64 { return 150 * (s.TComp + s.TComm) }

const pomDefaultSamples = 601

func init() {
	RegisterFamily("pom", FamilyDef{
		Validate:       validatePOM,
		Build:          buildPOMSystem,
		DefaultTEnd:    pomDefaultTEnd,
		DefaultSamples: pomDefaultSamples,
	})
	RegisterFamily("kuramoto", FamilyDef{
		Validate:       validateKuramoto,
		Build:          buildKuramoto,
		DefaultTEnd:    func(*Spec) float64 { return 40 },
		DefaultSamples: 201,
	})
	RegisterFamily("continuum", FamilyDef{
		Validate:       validateContinuum,
		Build:          buildContinuum,
		DefaultTEnd:    func(*Spec) float64 { return 40 },
		DefaultSamples: 201,
	})
}

// validatePOM checks the POM-family (top-level) fields.
func validatePOM(s *Spec) error {
	if s.N < 2 {
		return fieldErrf("n", "scenario: need n >= 2, got %d", s.N)
	}
	if s.TComp+s.TComm <= 0 {
		return fieldErrf("tcomp", "scenario: need tcomp + tcomm > 0")
	}
	if err := s.Potential.validate("potential"); err != nil {
		return err
	}
	if len(s.Offsets) == 0 {
		return fieldErrf("offsets", "scenario: empty stencil")
	}
	switch s.Init {
	case "", "sync", "desync", "random":
	default:
		return fieldErrf("init", "scenario: unknown init %q", s.Init)
	}
	if err := validateJitter(s.Jitter, "jitter"); err != nil {
		return err
	}
	return validateDelays(s.Delays, s.N, "delays")
}

// validateJitter checks a jitter block (shared by the POM-like families).
func validateJitter(j *JitterSpec, path string) error {
	if j == nil {
		return nil
	}
	switch j.Dist {
	case "gaussian", "uniform", "exponential":
		return nil
	default:
		return fieldErrf(path+".dist", "scenario: unknown jitter dist %q", j.Dist)
	}
}

// validateDelays checks a delay list against the rank count (shared by
// the POM-like families).
func validateDelays(delays []DelaySpec, n int, path string) error {
	for i, d := range delays {
		if d.Rank < 0 || d.Rank >= n {
			return fieldErrf(fmt.Sprintf("%s[%d].rank", path, i), "scenario: delay %d rank %d out of range", i, d.Rank)
		}
		if d.Duration <= 0 {
			return fieldErrf(fmt.Sprintf("%s[%d].duration", path, i), "scenario: delay %d needs positive duration", i)
		}
	}
	return nil
}

// validateKuramoto checks the Kuramoto sub-spec.
func validateKuramoto(s *Spec) error {
	k := s.Kuramoto
	if k == nil {
		return fieldErrf("kuramoto", "scenario: family %q needs a kuramoto section", "kuramoto")
	}
	if k.N < 2 {
		return fieldErrf("kuramoto.n", "scenario: kuramoto needs n >= 2, got %d", k.N)
	}
	if k.K < 0 || math.IsNaN(k.K) || math.IsInf(k.K, 0) {
		return fieldErrf("kuramoto.k", "scenario: bad kuramoto coupling %v", k.K)
	}
	if k.FreqStd < 0 || math.IsNaN(k.FreqStd) || math.IsInf(k.FreqStd, 0) {
		return fieldErrf("kuramoto.freq_std", "scenario: bad kuramoto freq_std %v", k.FreqStd)
	}
	return nil
}

// validateContinuum checks the continuum sub-spec.
func validateContinuum(s *Spec) error {
	c := s.Continuum
	if c == nil {
		return fieldErrf("continuum", "scenario: family %q needs a continuum section", "continuum")
	}
	if err := (continuum.Grid{M: c.M, A: c.A, Periodic: c.Periodic}).Validate(); err != nil {
		return fieldErr("continuum.m", err)
	}
	if c.K < 0 || math.IsNaN(c.K) || math.IsInf(c.K, 0) {
		return fieldErrf("continuum.k", "scenario: bad continuum coupling %v", c.K)
	}
	if err := c.Potential.validate("continuum.potential"); err != nil {
		return err
	}
	switch c.Init {
	case "", "flat", "pulse":
	default:
		return fieldErrf("continuum.init", "scenario: unknown continuum init %q", c.Init)
	}
	if c.Init == "pulse" {
		if c.PulseAmp == 0 || math.IsNaN(c.PulseAmp) || math.IsInf(c.PulseAmp, 0) {
			return fieldErrf("continuum.pulse_amp", "scenario: continuum pulse init needs finite pulse_amp != 0, got %v", c.PulseAmp)
		}
		if math.IsNaN(c.PulseCenter) || math.IsInf(c.PulseCenter, 0) {
			return fieldErrf("continuum.pulse_center", "scenario: bad pulse_center %v", c.PulseCenter)
		}
		if c.PulseWidth < 0 || math.IsNaN(c.PulseWidth) || math.IsInf(c.PulseWidth, 0) {
			return fieldErrf("continuum.pulse_width", "scenario: pulse_width must be finite and nonnegative, got %v", c.PulseWidth)
		}
	}
	return nil
}

// pomParams carries the family-independent POM knobs shared by the
// chain ("pom") and torus2d families, so both assemble their core.Config
// through one code path.
type pomParams struct {
	tComp, tComm        float64
	potential           PotentialSpec
	rendezvous, grouped bool
	couplingOverride    float64
	gain                float64
	delays              []DelaySpec
	jitter              *JitterSpec
	commLag             float64
	init                string
	perturbAmp          float64
	perturbSeed         uint64
}

// config assembles the core.Config on the given topology (validation has
// already passed).
func (p pomParams) config(tp *topology.Topology) core.Config {
	cfg := core.Config{
		N:                tp.N,
		TComp:            p.tComp,
		TComm:            p.tComm,
		Potential:        p.potential.build(),
		Topology:         tp,
		CouplingOverride: p.couplingOverride,
		Gain:             p.gain,
		PerturbAmp:       p.perturbAmp,
		PerturbSeed:      p.perturbSeed,
	}
	if p.rendezvous {
		cfg.Protocol = topology.Rendezvous
	}
	if p.grouped {
		cfg.WaitMode = topology.GroupedWaitall
	}
	switch p.init {
	case "desync":
		cfg.Init = core.Desynchronized
	case "random":
		cfg.Init = core.RandomPhases
	}
	period := p.tComp + p.tComm
	var local noise.Sum
	for _, d := range p.delays {
		extra := d.Extra
		if extra == 0 {
			extra = 100 * period
		}
		local = append(local, noise.Delay{
			Rank: d.Rank, Start: d.Start, Duration: d.Duration, Extra: extra,
		})
	}
	if p.jitter != nil {
		j := noise.Jitter{Amp: p.jitter.Amp, Refresh: p.jitter.Refresh, Seed: p.jitter.Seed}
		if j.Refresh == 0 {
			j.Refresh = period
		}
		switch p.jitter.Dist {
		case "uniform":
			j.Dist = noise.UniformSym
		case "exponential":
			j.Dist = noise.Exponential
		default:
			j.Dist = noise.Gaussian
		}
		local = append(local, j)
	}
	if len(local) > 0 {
		cfg.LocalNoise = local
	}
	if p.commLag > 0 {
		cfg.InteractionNoise = noise.ConstantLag{Lag: p.commLag}
	}
	return cfg
}

// model builds the configured core.Model on the given topology.
func (p pomParams) model(tp *topology.Topology) (*core.Model, error) {
	return core.New(p.config(tp))
}

// pomParams lifts the chain-POM (top-level) fields into the shared
// parameter set.
func (s *Spec) pomParams() pomParams {
	return pomParams{
		tComp: s.TComp, tComm: s.TComm,
		potential:  s.Potential,
		rendezvous: s.Rendezvous, grouped: s.GroupedWaitall,
		couplingOverride: s.CouplingOverride, gain: s.Gain,
		delays: s.Delays, jitter: s.Jitter, commLag: s.CommLag,
		init: s.Init, perturbAmp: s.PerturbAmp, perturbSeed: s.PerturbSeed,
	}
}

// buildPOMConfig assembles the core.Config of a POM spec (validation has
// already passed).
func (s *Spec) buildPOMConfig() (core.Config, error) {
	tp, err := topology.Stencil(s.N, s.Offsets, s.Periodic)
	if err != nil {
		return core.Config{}, err
	}
	return s.pomParams().config(tp), nil
}

// buildPOMSystem builds the POM family into its sim.System (a
// *core.Model). BuildSystem has already validated the spec.
func buildPOMSystem(s *Spec) (sim.System, error) {
	cfg, err := s.buildPOMConfig()
	if err != nil {
		return nil, err
	}
	return core.New(cfg)
}

// buildKuramoto builds the Kuramoto family into its sim.System.
func buildKuramoto(s *Spec) (sim.System, error) {
	k := s.Kuramoto
	return kuramoto.New(kuramoto.Config{
		N: k.N, K: k.K,
		FreqMean: k.FreqMean, FreqStd: k.FreqStd,
		Seed: k.Seed, SpreadInitial: k.SpreadInitial,
	})
}

// buildContinuum builds the continuum family into its sim.System.
func buildContinuum(s *Spec) (sim.System, error) {
	c := s.Continuum
	f := &continuum.Field{
		Grid:      continuum.Grid{M: c.M, A: c.A, Periodic: c.Periodic},
		Potential: c.Potential.build(),
		K:         c.K,
		Linear:    c.Linear,
	}
	theta0 := make([]float64, c.M)
	if c.Init == "pulse" {
		center := c.PulseCenter
		if center == 0 {
			center = f.Grid.Length() / 2
		}
		width := c.PulseWidth
		if width == 0 {
			width = 3 * c.A
		}
		for i := range theta0 {
			d := (f.Grid.X(i) - center) / width
			theta0[i] = -c.PulseAmp * math.Exp(-d*d)
		}
	}
	return f.System(theta0)
}

// Load reads a Spec from JSON.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a Spec from a JSON file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only close
	return Load(f)
}

// Save writes the Spec as indented JSON.
func (s *Spec) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Fig2Panel returns the spec of one Fig. 2 panel, ready to save or run.
func Fig2Panel(offsets []int, scalable bool, sigma float64) *Spec {
	s := &Spec{
		Name:    "fig2",
		N:       40,
		TComp:   0.8,
		TComm:   0.2,
		Offsets: offsets,
		Delays:  []DelaySpec{{Rank: 5, Start: 50, Duration: 2.5}},
		TEnd:    400,
		Samples: 4001,
	}
	if scalable {
		s.Potential = PotentialSpec{Kind: "tanh"}
	} else {
		s.Potential = PotentialSpec{Kind: "desync", Sigma: sigma}
		s.Init = "random"
		s.PerturbAmp = 0.02
		s.PerturbSeed = 1
	}
	return s
}

// KuramotoScenario returns a ready-to-run Kuramoto-family spec — the
// baseline comparator as a serializable scenario.
func KuramotoScenario(n int, k float64, seed uint64) *Spec {
	return &Spec{
		Name:   "kuramoto",
		Family: "kuramoto",
		Kuramoto: &KuramotoSpec{
			N: n, K: k, FreqMean: 0, FreqStd: 1, Seed: seed, SpreadInitial: true,
		},
	}
}

// ContinuumScenario returns a ready-to-run continuum-family spec: a lag
// pulse relaxing (tanh) or sharpening into the wavefront (desync).
func ContinuumScenario(m int, k float64, pot PotentialSpec) *Spec {
	return &Spec{
		Name:   "continuum",
		Family: "continuum",
		Continuum: &ContinuumSpec{
			M: m, A: 1, K: k, Potential: pot,
			Init: "pulse", PulseAmp: 2,
		},
	}
}
