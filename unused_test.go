package repro_test

import (
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// exemptPackages are packages whose whole exported surface stays, with
// the reason.
var exemptPackages = map[string]string{
	"repro/pom":                "the public API: its exports are for callers outside this module",
	"repro/internal/failpoint": "test seam: tests arm and observe failure points through its rules",
}

// keptUnused names the exported package-level functions that no non-test
// code uses and that stay on purpose, each with the reason.
var keptUnused = map[string]string{
	"repro/internal/serve.NewFakeClock":        "test seam: the deterministic clock serve tests drive",
	"repro/internal/ode.FixedSolve":            "BenchmarkAblationSolver measures the fixed-step solvers with it",
	"repro/internal/topology.NextPlusNextNext": "fixture that tests in other packages build on",
	"repro/internal/topology.Random":           "fixture that tests in other packages build on",
	"repro/internal/linalg.NewDenseFrom":       "fixture that tests in other packages build on",
	"repro/internal/scenario.Fig2Panel":        "fixture that tests in other packages build on",
	"repro/internal/scenario.Torus2DScenario":  "fixture that tests in other packages build on",
	"repro/internal/scenario.LinstabScenario":  "fixture that tests in other packages build on",
	"repro/internal/scenario.ClusterScenario":  "fixture that tests in other packages build on",
}

// TestNoUnusedExports fails on any exported package-level function, in
// this module or in perfbench, that nothing outside a _test.go file uses.
// Dead API like that costs reading and upkeep and tests only itself;
// delete it, or list it in keptUnused with the reason it stays. Methods
// are out of scope: calls through an interface do not name them.
func TestNoUnusedExports(t *testing.T) {
	declared := map[string]bool{}
	used := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Parent() == fn.Pkg().Scope() {
					used[fn.Pkg().Path()+"."+fn.Name()] = true
				}
			}
			if exemptPackages[pkg.Path] != "" {
				continue
			}
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() {
					declared[pkg.Path+"."+name] = true
				}
			}
		}
	}
	var unused []string
	for name := range declared {
		if !used[name] && keptUnused[name] == "" {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions have no use outside tests; delete them or list them in keptUnused:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for name := range keptUnused {
		if !declared[name] {
			t.Errorf("keptUnused lists %s, which is not declared", name)
		} else if used[name] {
			t.Errorf("keptUnused lists %s, which non-test code uses", name)
		}
	}
}
