package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzSeeds are the corpus starting points: every shipped example (one
// per family) plus documents that probe the error paths.
func fuzzSeeds(t testing.TB) [][]byte {
	seeds := make([][]byte, 0, len(exampleFiles)+8)
	for _, name := range exampleFiles {
		seeds = append(seeds, readExample(t, name))
	}
	for _, s := range []string{
		"", "{", "[]", "{}", `{"family":"nope"}`, `{"n":1e999}`,
		`{"potential":{"kind":"tanh","sigma":-1}}`,
		`{"family":"cluster","cluster":{"n":4,"iters":3}}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// hashDoc loads a raw spec JSON document and returns its canonical hash.
// Malformed or invalid documents return an error, never a panic.
func hashDoc(data []byte) (string, error) {
	s, err := Load(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	return CanonicalHash(s)
}

// checkCanonical is the fuzz property, shared with the seeds-only test
// below so plain `go test` exercises every seed without the fuzzer.
//
//   - loading and hashing never panics, whatever the bytes;
//   - when a document hashes, a purely-whitespace rewrite of it hashes
//     identically;
//   - the canonical encoding is a fixed point: re-hashing the canonical
//     bytes reproduces the hash (so the canonical form is itself a valid
//     spec document, and hashing is stable under canonicalization).
func checkCanonical(t *testing.T, data []byte) {
	h1, err := hashDoc(data)
	if err != nil {
		return // malformed or invalid: an error is the correct outcome
	}

	var buf bytes.Buffer
	if err := json.Indent(&buf, data, " ", "\t"); err == nil {
		h2, err := hashDoc(buf.Bytes())
		if err != nil {
			t.Fatalf("indented rewrite stopped hashing: %v\ndoc: %s", err, data)
		}
		if h2 != h1 {
			t.Fatalf("whitespace changed the hash: %s vs %s\ndoc: %s", h2, h1, data)
		}
	}

	s, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("document hashed but Load failed: %v\ndoc: %s", err, data)
	}
	cb, err := CanonicalSpec(s)
	if err != nil {
		t.Fatalf("document hashed but CanonicalSpec failed: %v\ndoc: %s", err, data)
	}
	h3, err := hashDoc(cb)
	if err != nil {
		t.Fatalf("canonical bytes do not re-load: %v\ncanonical: %s", err, cb)
	}
	if h3 != h1 {
		t.Fatalf("canonicalization is not a fixed point: %s vs %s\ndoc: %s\ncanonical: %s", h3, h1, data, cb)
	}
}

// FuzzCanonicalSpec fuzzes the canonical-hash entry point with the
// example corpus as seeds. The invariants live in checkCanonical.
func FuzzCanonicalSpec(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkCanonical)
}

// TestFuzzCanonicalSeeds runs the fuzz property over every seed under
// plain `go test`, so the invariants hold in CI without -fuzz time.
func TestFuzzCanonicalSeeds(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		checkCanonical(t, seed)
	}
}
