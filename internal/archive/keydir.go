package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// KeyDir is a tiny durable string-key → point-index map stored beside
// an archive directory's shards: the content-address index of the
// pomsimd result cache (canonical spec hash → shard holding the run).
// The format is a deliberately boring append-only text log —
//
//	POMKEYS1
//	<key> <index>
//	<key> <index>
//	…
//
// — one fsync'd line per Put, so a crash can lose at most the entry
// being written, never corrupt earlier ones. Load tolerates a torn
// final line (no trailing newline) by ignoring it: the shard a torn
// entry pointed at is still committed and readable, the mapping is
// simply re-Put by the next run of the same spec. Keys must be
// non-empty and free of whitespace and control characters (hex hashes
// are). A KeyDir is not safe for concurrent use; callers serialize.
type KeyDir struct {
	path string
	f    *os.File
	m    map[string]uint64
}

// KeyDirName is the index file's name inside the archive directory.
const KeyDirName = "keys.pomidx"

const keyDirMagic = "POMKEYS1"

// OpenKeyDir opens (creating if needed) the key index of the archive
// directory dir and loads its entries. Duplicate keys keep the last
// entry — a crash between a shard's commit and its fsync'd index line
// is healed by re-putting, and last-wins makes the retry idempotent.
func OpenKeyDir(dir string) (*KeyDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	path := filepath.Join(dir, KeyDirName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	kd := &KeyDir{path: path, f: f, m: map[string]uint64{}}
	if err := kd.load(); err != nil {
		_ = f.Close() // error path: the load error is the one to report
		return nil, err
	}
	return kd, nil
}

// load replays the log into the in-memory map and positions the file
// for appending. A torn final line (missing its newline — even one
// that happens to parse) is dropped from the log so the next Put
// starts on a clean line boundary; without that, an append would fuse
// onto the torn fragment and corrupt both entries.
func (kd *KeyDir) load() error {
	data, err := os.ReadFile(kd.path)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if len(data) == 0 {
		// Fresh index: stamp the header so readers can tell an index
		// from stray files.
		if _, err := kd.f.WriteString(keyDirMagic + "\n"); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		return nil
	}
	header := keyDirMagic + "\n"
	if !strings.HasPrefix(string(data), header) {
		return fmt.Errorf("archive: %s: %w (bad key-index header)", kd.path, ErrCorrupt)
	}
	// A complete log ends in a newline; anything after the last newline
	// is a torn Put and gets cut below.
	goodEnd := int64(len(header))
	rest := data[len(header):]
	if i := bytes.LastIndexByte(rest, '\n'); i >= 0 {
		rest = rest[:i+1]
	} else {
		rest = nil
	}
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		line := string(rest[:nl])
		rest = rest[nl+1:]
		key, idx, err := parseKeyLine(line)
		if err != nil {
			// A malformed interior line means real corruption; stop
			// trusting here and truncate the rest away. The lost
			// entries' shards are still committed — the mappings
			// reappear on the next Put of the same specs.
			break
		}
		kd.m[key] = idx
		goodEnd += int64(len(line)) + 1
	}
	if goodEnd < int64(len(data)) {
		if err := kd.f.Truncate(goodEnd); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	if _, err := kd.f.Seek(goodEnd, 0); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// parseKeyLine splits "key index" and validates both halves.
func parseKeyLine(line string) (string, uint64, error) {
	key, idxStr, ok := strings.Cut(line, " ")
	if !ok || !validKey(key) {
		return "", 0, errors.New("archive: malformed key line")
	}
	idx, err := strconv.ParseUint(idxStr, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("archive: malformed key index: %w", err)
	}
	return key, idx, nil
}

// validKey reports whether key can round-trip through the line format.
func validKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// Get returns the index stored under key.
func (kd *KeyDir) Get(key string) (uint64, bool) {
	idx, ok := kd.m[key]
	return idx, ok
}

// Len returns the number of stored keys.
func (kd *KeyDir) Len() int { return len(kd.m) }

// Put durably appends key → index. Re-putting the same pair is a
// no-op; rebinding an existing key to a different index is an error —
// a content-addressed entry never changes what it points at, so a
// rebind attempt means the caller's dedup broke.
func (kd *KeyDir) Put(key string, index uint64) error {
	if !validKey(key) {
		return fmt.Errorf("archive: invalid key %q", key)
	}
	if prev, ok := kd.m[key]; ok {
		if prev == index {
			return nil
		}
		return fmt.Errorf("archive: key %q already maps to %d (rebind to %d refused)", key, prev, index)
	}
	line := key + " " + strconv.FormatUint(index, 10) + "\n"
	if _, err := kd.f.WriteString(line); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := kd.f.Sync(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	kd.m[key] = index
	return nil
}

// Close releases the file handle. The map stays readable; further Puts
// fail.
func (kd *KeyDir) Close() error { return kd.f.Close() }
