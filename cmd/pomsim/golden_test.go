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

// mainEnv makes the test binary run pomsim's main instead of the tests,
// so the golden test drives the real command line end to end without a
// separate build step.
const mainEnv = "POMSIM_GOLDEN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCase is one pomsim invocation. Arguments may name "$TMP", a
// per-case temporary directory; it is substituted before the run and
// restored in the output, so goldens do not depend on the host's paths.
type goldenCase struct {
	name    string
	args    []string
	wantErr bool
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, cfg := range []string{"cluster", "continuum", "kuramoto", "linstab", "pom", "torus2d"} {
		path := filepath.Join("..", "..", "examples", "scenarios", cfg+".json")
		cases = append(cases,
			goldenCase{name: cfg + "-quiet", args: []string{"-config", path, "-quiet"}},
			goldenCase{name: cfg + "-stream", args: []string{"-config", path, "-stream"}},
			goldenCase{name: cfg + "-archive", args: []string{"-config", path, "-archive", "$TMP/arc"}},
		)
	}
	return append(cases,
		goldenCase{name: "flags-default", args: []string{"-quiet"}},
		goldenCase{name: "flags-tanh-delay", args: []string{"-n", "40", "-potential", "tanh", "-delay-rank", "5", "-t", "60"}},
		goldenCase{name: "flags-tanh-delay-stream", args: []string{"-n", "40", "-potential", "tanh", "-delay-rank", "5", "-t", "60", "-stream"}},
		goldenCase{name: "flags-desync-wavefront", args: []string{"-n", "24", "-potential", "desync", "-sigma", "1.5", "-desync-init", "-t", "60", "-stream"}},
		goldenCase{name: "flags-desync-archive", args: []string{"-n", "24", "-potential", "desync", "-sigma", "1.5", "-t", "60", "-samples", "121", "-archive", "$TMP/arc", "-archive-codec", "raw"}},
		goldenCase{name: "flags-kuramoto-jitter", args: []string{"-potential", "kuramoto", "-jitter", "0.05", "-t", "60", "-stream"}},
		goldenCase{name: "flags-commlag-rendezvous", args: []string{"-comm-lag", "0.3", "-rendezvous", "-grouped-waitall", "-offsets=-2,-1,1,2", "-periodic", "-t", "40", "-stream"}},
		goldenCase{name: "flags-svg", args: []string{"-n", "16", "-t", "30", "-quiet", "-svg", "$TMP/svg"}},
		goldenCase{name: "flags-list-families", args: []string{"-list-families"}},
		goldenCase{name: "flags-svg-stream-error", args: []string{"-stream", "-svg", "$TMP/svg"}, wantErr: true},
	)
}

// TestGolden pins pomsim's stdout for the example configs in every run
// mode, plus a set of flag scenarios, against testdata/*.golden. Archive
// runs also pin the SHA-256 of every shard they write. Regenerate with
// go test ./cmd/pomsim -run TestGolden -update.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 row bits; other GOARCH values stream different bits (ROADMAP item 1)")
	}
	for _, tc := range goldenCases() {
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
			got += shardHashes(t, filepath.Join(tmp, "arc"))
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

// shardHashes lists the SHA-256 of every file in an archive directory, in
// name order; a missing directory lists nothing.
func shardHashes(t *testing.T, dir string) string {
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
