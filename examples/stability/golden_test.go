package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// mainEnv makes the test binary run the example's main instead of the
// tests, so the golden test drives the real program without a separate
// build step.
const mainEnv = "STABILITY_GOLDEN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the example's stdout (the linear-stability table and
// both continuum-limit lines) against testdata/stdout.golden.
// Regenerate with go test ./examples/stability -run TestGolden -update.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bits; other GOARCH values compute different bits (ROADMAP item 3)")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v; stderr:\n%s", err, stderr.String())
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
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
}
