package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKeyDirRoundTrip pins the basic contract: puts are visible, survive
// a close/reopen cycle, and re-putting an identical pair is a no-op.
func TestKeyDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	kd, err := OpenKeyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	puts := map[string]uint64{"aaa": 0, "bbb": 7, "ccc": 12345678901234}
	for k, v := range puts {
		if err := kd.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := kd.Put("bbb", 7); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	if kd.Len() != 3 {
		t.Fatalf("Len = %d, want 3", kd.Len())
	}
	if err := kd.Close(); err != nil {
		t.Fatal(err)
	}

	kd2, err := OpenKeyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kd2.Close() }()
	for k, want := range puts {
		got, ok := kd2.Get(k)
		if !ok || got != want {
			t.Errorf("Get(%q) = %d, %v after reload; want %d, true", k, got, ok, want)
		}
	}
	if kd2.Len() != 3 {
		t.Errorf("Len = %d after reload, want 3", kd2.Len())
	}
}

// TestKeyDirRebindRefused pins the content-address invariant: a key can
// never change what it points at.
func TestKeyDirRebindRefused(t *testing.T) {
	kd, err := OpenKeyDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kd.Close() }()
	if err := kd.Put("deadbeef", 1); err != nil {
		t.Fatal(err)
	}
	err = kd.Put("deadbeef", 2)
	if err == nil || !strings.Contains(err.Error(), "rebind") {
		t.Fatalf("rebind Put = %v, want refusal", err)
	}
	if got, _ := kd.Get("deadbeef"); got != 1 {
		t.Fatalf("after refused rebind Get = %d, want 1", got)
	}
}

// TestKeyDirInvalidKeys pins key validation: empty, spaced, and
// control-character keys are refused before touching the log.
func TestKeyDirInvalidKeys(t *testing.T) {
	kd, err := OpenKeyDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kd.Close() }()
	for _, key := range []string{"", "a b", "a\nb", "a\tb", "\x7f"} {
		if err := kd.Put(key, 0); err == nil {
			t.Errorf("Put(%q) accepted, want error", key)
		}
	}
	if kd.Len() != 0 {
		t.Fatalf("Len = %d after refused puts, want 0", kd.Len())
	}
}

// TestKeyDirTornTail simulates a crash mid-append: a final line without
// its newline is dropped on reload and the log heals so new puts land
// on a clean boundary.
func TestKeyDirTornTail(t *testing.T) {
	dir := t.TempDir()
	kd, err := OpenKeyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := kd.Put("good", 1); err != nil {
		t.Fatal(err)
	}
	if err := kd.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log: append a partial entry with no trailing newline.
	path := filepath.Join(dir, KeyDirName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn 9"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	kd2, err := OpenKeyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := kd2.Get("torn"); ok {
		t.Error("torn entry survived reload")
	}
	if got, ok := kd2.Get("good"); !ok || got != 1 {
		t.Errorf("good entry lost: got %d, %v", got, ok)
	}
	// The heal must leave the log appendable: a new put and another
	// reload round-trip cleanly.
	if err := kd2.Put("after", 2); err != nil {
		t.Fatal(err)
	}
	if err := kd2.Close(); err != nil {
		t.Fatal(err)
	}
	kd3, err := OpenKeyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kd3.Close() }()
	if got, ok := kd3.Get("after"); !ok || got != 2 {
		t.Errorf("post-heal entry lost: got %d, %v", got, ok)
	}
	if kd3.Len() != 2 {
		t.Errorf("Len = %d, want 2", kd3.Len())
	}
}

// TestKeyDirBadHeader pins that a non-index file is rejected, not
// silently treated as empty.
func TestKeyDirBadHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, KeyDirName), []byte("NOTKEYS\nx 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenKeyDir(dir); err == nil {
		t.Fatal("OpenKeyDir accepted a bad header")
	}
}
