// Package examples_test pins the stdout of the example programs: each
// one is built from its directory, run, and compared byte for byte with
// <name>/testdata/stdout.golden.
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite each <name>/testdata/stdout.golden from the current output")

// goldenExamples are the examples whose stdout is pinned.
var goldenExamples = []string{"quickstart", "wavefront", "halo2d", "topologysweep", "stability"}

// TestGolden builds every pinned example in one go build and compares
// its stdout with its golden file. Regenerate with
// go test ./examples -run TestGolden -update.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bits; other GOARCH values compute different bits (ROADMAP item 8)")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range goldenExamples {
		args = append(args, "./"+name)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v; stderr:\n%s", err, stderr.String())
			}
			golden := filepath.Join(name, "testdata", "stdout.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
