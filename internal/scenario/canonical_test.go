package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// exampleDir is the shipped scenario corpus — one spec per family.
const exampleDir = "../../examples/scenarios"

var exampleFiles = []string{
	"pom.json", "kuramoto.json", "continuum.json",
	"torus2d.json", "linstab.json", "cluster.json",
}

func readExample(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func hashJSON(t *testing.T, data []byte) string {
	t.Helper()
	h, err := hashDoc(data)
	if err != nil {
		t.Fatalf("hashDoc(%s): %v", data, err)
	}
	return h
}

// TestCanonicalHashExamples pins that every shipped example hashes, and
// that a sorted-key / reformatted rewrite of each document (decode into
// a map, re-marshal) hashes identically — key order and whitespace are
// not part of the scenario's identity.
func TestCanonicalHashExamples(t *testing.T) {
	seen := map[string]string{}
	for _, name := range exampleFiles {
		data := readExample(t, name)
		h := hashJSON(t, data)
		if prev, dup := seen[h]; dup {
			t.Errorf("%s and %s hash equal (%s) but build different systems", name, prev, h)
		}
		seen[h] = name

		// Key-order + formatting rewrite: maps marshal with sorted keys,
		// so this genuinely permutes the document.
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resorted, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashJSON(t, resorted); got != h {
			t.Errorf("%s: sorted-key rewrite hashes %s, want %s", name, got, h)
		}

		// Whitespace rewrite.
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "  ", "\t"); err != nil {
			t.Fatal(err)
		}
		if got := hashJSON(t, buf.Bytes()); got != h {
			t.Errorf("%s: indented rewrite hashes %s, want %s", name, got, h)
		}
	}
}

// TestCanonicalHashEquivalences pins the documented identities: the
// empty family resolves to "pom", the output label does not participate,
// and explicitly-written zero values hash like absent fields.
func TestCanonicalHashEquivalences(t *testing.T) {
	base := `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`
	h := hashJSON(t, []byte(base))
	for desc, variant := range map[string]string{
		"explicit family": `{"family":"pom","n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`,
		"relabeled":       `{"name":"anything","n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`,
		"explicit zeros":  `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"periodic":false,"t_end":0,"samples":0,"comm_lag":0}`,
		"reordered":       `{"offsets":[-1,1],"potential":{"kind":"tanh"},"tcomm":0.2,"tcomp":0.8,"n":8}`,
		"number spelling": `{"n":8,"tcomp":8e-1,"tcomm":2.0e-1,"potential":{"kind":"tanh"},"offsets":[-1,1]}`,
	} {
		if got := hashJSON(t, []byte(variant)); got != h {
			t.Errorf("%s: hash %s, want %s", desc, got, h)
		}
	}
}

// TestCanonicalHashDistinguishes pins that changes that alter the built
// system change the hash.
func TestCanonicalHashDistinguishes(t *testing.T) {
	base := `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`
	h := hashJSON(t, []byte(base))
	for desc, variant := range map[string]string{
		"different n":       `{"n":9,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`,
		"different sigma":   `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh","sigma":2},"offsets":[-1,1]}`,
		"different stencil": `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-2,2]}`,
		"periodic":          `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"periodic":true}`,
		"explicit t_end":    `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"t_end":40}`,
	} {
		if got := hashJSON(t, []byte(variant)); got == h {
			t.Errorf("%s: hash unchanged (%s)", desc, h)
		}
	}
}

// TestCanonicalHashErrors pins that malformed and invalid documents
// error instead of hashing (or panicking).
func TestCanonicalHashErrors(t *testing.T) {
	for _, bad := range []string{
		"", "{", "[]", "123", `"x"`, "null",
		`{"zzz":1}`,             // unknown field
		`{"family":"nope"}`,     // unknown family
		`{"n":-1}`,              // invalid pom config
		`{"family":"kuramoto"}`, // missing section
	} {
		if h, err := hashDoc([]byte(bad)); err == nil {
			t.Errorf("hashDoc(%q) = %s, want error", bad, h)
		}
	}
}

// TestCanonicalSpecFixedPoint pins that the canonical encoding is a
// fixed point: hashing the canonical bytes reproduces the hash.
func TestCanonicalSpecFixedPoint(t *testing.T) {
	for _, name := range exampleFiles {
		data := readExample(t, name)
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := CanonicalSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		h1 := hashJSON(t, data)
		if h2 := hashJSON(t, cb); h2 != h1 {
			t.Errorf("%s: canonical bytes re-hash %s, want %s", name, h2, h1)
		}
	}
}
