package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// mainEnv makes the test binary run mpisim's main instead of the tests,
// so the golden test drives the real command line end to end without a
// separate build step.
const mainEnv = "MPISIM_GOLDEN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCase is one mpisim invocation. Arguments may name "$TMP", a
// per-case temporary directory; it is substituted before the run and
// restored in the output, so goldens do not depend on the host's paths.
type goldenCase struct {
	name    string
	args    []string
	wantErr bool
}

var goldenCases = []goldenCase{
	{name: "default", args: nil},
	{name: "pisolver-delay", args: []string{"-kernel", "pisolver", "-n", "40", "-delay-rank", "5"}},
	{name: "stream-files", args: []string{"-kernel", "stream", "-n", "20", "-offsets=-1,1", "-delay-rank", "3", "-iters", "120", "-svg", "$TMP/out", "-trace-csv", "$TMP/out/trace.csv"}},
	{name: "schoenauer-delay", args: []string{"-kernel", "schoenauer", "-n", "30", "-delay-rank", "10", "-delay-iter", "20", "-iters", "200"}},
	{name: "periodic-delay", args: []string{"-n", "24", "-periodic", "-delay-rank", "0", "-iters", "200"}},
	{name: "noise-delay", args: []string{"-n", "40", "-delay-rank", "5", "-noise", "0.1"}},
	{name: "delay-iter-out-of-range-error", args: []string{"-n", "10", "-delay-rank", "3", "-delay-iter", "500", "-iters", "400"}, wantErr: true},
	{name: "delay-iter-negative-error", args: []string{"-n", "10", "-delay-rank", "3", "-delay-iter", "-1"}, wantErr: true},
	{name: "delay-iter-zero", args: []string{"-n", "10", "-delay-rank", "3", "-delay-iter", "0", "-iters", "100"}},
	{name: "supermuc-rendezvous", args: []string{"-machine", "supermuc-ng", "-n", "48", "-delay-rank", "5", "-msg", "1048576", "-iters", "200"}},
}

// TestGolden pins mpisim's stdout for every kernel, machine and delay
// flag, plus the SHA-256 of the Gantt SVG and the trace CSV, against
// testdata/*.golden. Regenerate with
// go test ./cmd/mpisim -run TestGolden -update.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bits; other GOARCH values compute different bits (ROADMAP item 3)")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "$TMP", tmp)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			switch {
			case err != nil && !errors.As(err, &exit):
				t.Fatal(err)
			case tc.wantErr && err == nil:
				t.Fatalf("run succeeded, want an error exit; stdout:\n%s", stdout.String())
			case !tc.wantErr && err != nil:
				t.Fatalf("%v; stderr:\n%s", err, stderr.String())
			}

			got := stdout.String()
			if tc.wantErr {
				got += "--- stderr ---\n" + stderr.String()
			}
			got += fileHashes(t, filepath.Join(tmp, "out"))
			got = strings.ReplaceAll(got, tmp, "$TMP")

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// fileHashes lists the SHA-256 of every file in dir, in name order; a
// missing directory lists nothing.
func fileHashes(t *testing.T, dir string) string {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "sha256 %s %x\n", name, sha256.Sum256(data))
	}
	return b.String()
}
