package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file defines the canonical encoding of a Spec and the content
// hash derived from it — the cache key of the pomsimd result cache. Two
// JSON documents that describe the same scenario must hash identically
// no matter how they were written down; two scenarios that build
// different systems must hash differently. The canonicalization is
// purely syntactic:
//
//   - key order and whitespace vanish by decoding into the Spec struct
//     and re-marshaling (struct field order is fixed),
//   - explicitly-written default values ("periodic": false, "t_end": 0)
//     vanish through the omitempty/omitzero tags, exactly like the
//     absent field,
//   - the empty family name is resolved to its meaning, "pom",
//   - Name is dropped: it labels outputs and never reaches the built
//     system, so relabeled copies of one scenario share a cache entry.
//
// Run-control defaults (t_end 0 → family default) are deliberately NOT
// resolved into the canonical form: the cluster family's effective run
// length is only known after building (TEndSuggester), so folding
// estimated defaults in could make two differently-behaving specs hash
// equal. "t_end": 0 and an explicit t_end at the default value are
// distinct canonical specs, which is safe — the cache only ever needs
// equal specs to collide, never near-equal ones.

// canonicalized returns the spec's canonical form: a copy with the
// family name resolved and the output label dropped. The spec must
// already have validated.
func (s *Spec) canonicalized() (*Spec, error) {
	name, _, err := s.family()
	if err != nil {
		return nil, err
	}
	c := *s
	c.Name = ""
	c.Family = name
	return &c, nil
}

// CanonicalSpec validates s and returns its canonical JSON encoding:
// compact, fixed key order, defaults elided, family resolved, name
// dropped. Specs that differ only in formatting, key order, explicit
// defaults, or label produce identical bytes.
func CanonicalSpec(s *Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c, err := s.canonicalized()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(c)
	if err != nil {
		// Unreachable for a validated spec (every field is a plain JSON
		// type), kept as an error so no caller path can panic.
		return nil, fmt.Errorf("scenario: canonical encoding: %w", err)
	}
	return b, nil
}

// CanonicalHash validates s and returns the hex SHA-256 of its
// canonical encoding — the content address of the scenario, used as
// the pomsimd result-cache key.
func CanonicalHash(s *Spec) (string, error) {
	b, err := CanonicalSpec(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
