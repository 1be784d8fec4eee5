package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// exemptPackages are packages whose whole exported surface stays, with
// the reason.
var exemptPackages = map[string]string{
	"repro/internal/failpoint": "test seam: tests arm and observe failure points through its rules",
}

// publicAPI is the exported surface of the pom facade, for callers
// outside this module: these functions stay even when no example here
// calls them, and pom may export no other function.
var publicAPI = map[string]string{
	"repro/pom.NewModel":     "builds a model; every facade example runs one",
	"repro/pom.Scalable":     "the §5.2.1 scenario (quickstart, topologysweep)",
	"repro/pom.Bottlenecked": "the §5.2.2 scenario (wavefront)",
	"repro/pom.NextNeighbor": "the ±1 stencil topology (wavefront, topologysweep)",
	"repro/pom.Stencil":      "a stencil topology with any offsets (topologysweep)",
	"repro/pom.OneOffDelay":  "the idle-wave trigger (quickstart, topologysweep)",
	"repro/pom.Meggie":       "the paper's benchmark machine (wavefront)",
	"repro/pom.STREAM":       "the memory-bound kernel (wavefront)",
	"repro/pom.SimulateMPI":  "the bulk-synchronous MPI run (wavefront)",
}

// keptUnused names the exported package-level functions and methods
// (keyed pkg.Type.Method) that no non-test code uses and that stay on
// purpose, each with the reason.
var keptUnused = map[string]string{
	"repro/internal/serve.NewFakeClock":           "test seam: the deterministic clock serve tests drive",
	"repro/internal/ode.FixedSolve":               "BenchmarkAblationSolver measures the fixed-step solvers with it",
	"repro/internal/topology.NextPlusNextNext":    "fixture that tests in other packages build on",
	"repro/internal/topology.Random":              "fixture that tests in other packages build on",
	"repro/internal/linalg.NewDenseFrom":          "fixture that tests in other packages build on",
	"repro/internal/scenario.Fig2Panel":           "fixture that tests in other packages build on",
	"repro/internal/scenario.Torus2DScenario":     "fixture that tests in other packages build on",
	"repro/internal/scenario.LinstabScenario":     "fixture that tests in other packages build on",
	"repro/internal/scenario.ClusterScenario":     "fixture that tests in other packages build on",
	"repro/internal/stats.RNG.Intn":               "fixture: tests in other packages draw bounded random sizes with it",
	"repro/internal/serve.FakeClock.Advance":      "test seam: serve tests move the fake clock with it",
	"repro/internal/serve.Server.Executions":      "test seam: the chaos suite's no-duplicate-work probe",
	"repro/internal/topology.Topology.WaveSpeeds": "the analytic wave-speed predictor kernels/wavespeed_test.go checks the simulated waves against",
}

// inlineInterfaces are interfaces the standard library asserts inside
// function bodies (errors.Is, errors.As and errors.Unwrap unwrap through
// one), which export data does not carry.
const inlineInterfaces = `package inline

type unwrapper interface{ Unwrap() error }
`

// TestNoUnusedExports fails on any exported package-level function or
// method of a concrete type, in this module or in perfbench, that nothing
// outside a _test.go file uses. Dead API like that costs reading and
// upkeep and tests only itself; delete it, or list it in keptUnused with
// the reason it stays. A call through an interface does not name the
// method it reaches, so a method is exempt when its type satisfies an
// interface that has a method of that name: one declared in either
// module, in a package they import, or in inlineInterfaces.
func TestNoUnusedExports(t *testing.T) {
	declared := map[string]bool{}
	methods := map[string]*types.Named{} // declared method key -> receiver
	used := map[string]bool{}
	ifaces := newInterfaceSet(t)
	for _, dir := range []string{".", "perfbench"} {
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ifaces.addPackage(pkg.Types)
			for _, tv := range pkg.Info.Types {
				ifaces.add(tv.Type)
			}
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					if key := funcKey(fn); key != "" {
						used[key] = true
					}
				}
			}
			if exemptPackages[pkg.Path] != "" {
				continue
			}
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				switch obj := scope.Lookup(name).(type) {
				case *types.Func:
					if obj.Exported() {
						declared[pkg.Path+"."+name] = true
					}
				case *types.TypeName:
					named, ok := obj.Type().(*types.Named)
					if !ok || obj.IsAlias() || types.IsInterface(named) {
						continue
					}
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							key := funcKey(m)
							declared[key] = true
							methods[key] = named
						}
					}
				}
			}
		}
	}
	var unused []string
	for name := range declared {
		if used[name] || keptUnused[name] != "" || publicAPI[name] != "" {
			continue
		}
		if named := methods[name]; named != nil && ifaces.satisfiedBy(named, name[strings.LastIndex(name, ".")+1:]) {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions and methods have no use outside tests; delete them or list them in keptUnused:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for name := range keptUnused {
		if !declared[name] {
			t.Errorf("keptUnused lists %s, which is not declared", name)
		} else if used[name] {
			t.Errorf("keptUnused lists %s, which non-test code uses", name)
		}
	}
	for name := range publicAPI {
		if !declared[name] {
			t.Errorf("publicAPI lists %s, which is not declared", name)
		}
	}
	for name := range declared {
		if strings.HasPrefix(name, "repro/pom.") && methods[name] == nil && publicAPI[name] == "" {
			t.Errorf("pom exports %s, which publicAPI does not list", name)
		}
	}
}

// funcKey names a function as pkg.Name and a method of a named concrete
// type as pkg.Type.Method. Identifiers resolve to distinct objects in
// source-checked and export-data views of a package, so the keys, not the
// objects, match declarations to uses. It returns "" for interface
// methods and functions outside any package.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		if fn.Parent() != fn.Pkg().Scope() {
			return ""
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	obj := named.Origin().Obj()
	return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
}

// interfaceSet indexes interfaces by the names of their methods.
type interfaceSet struct {
	seenPkg  map[*types.Package]bool
	seenType map[types.Type]bool
	byMethod map[string][]*types.Interface
}

func newInterfaceSet(t *testing.T) *interfaceSet {
	s := &interfaceSet{
		seenPkg:  map[*types.Package]bool{},
		seenType: map[types.Type]bool{},
		byMethod: map[string][]*types.Interface{},
	}
	s.add(types.Universe.Lookup("error").Type())
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inline.go", inlineInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("inline", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.addPackage(pkg)
	return s
}

// addPackage adds the package-level interfaces of pkg and of every
// package it imports, transitively.
func (s *interfaceSet) addPackage(pkg *types.Package) {
	if s.seenPkg[pkg] {
		return
	}
	s.seenPkg[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			s.add(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		s.addPackage(imp)
	}
}

// add indexes t when it is a non-generic interface with methods.
func (s *interfaceSet) add(t types.Type) {
	if t == nil || s.seenType[t] {
		return
	}
	s.seenType[t] = true
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		s.byMethod[name] = append(s.byMethod[name], iface)
	}
}

// satisfiedBy reports whether named, or a pointer to it, implements an
// indexed interface that has a method called method.
func (s *interfaceSet) satisfiedBy(named *types.Named, method string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range s.byMethod[method] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
