// Package golden keeps test fixtures frozen on disk. Every golden file in
// the repository goes through Check, so one environment variable
// regenerates all of them: run the tests with UPDATE_GOLDEN=1 only for a
// change that is meant to alter the output, and review the diff.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Check compares got against the file at path. With UPDATE_GOLDEN set it
// writes got to path instead, creating the directory, and passes.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first differing line: the files are JSON or text, save
	// for the pcapng fixture, whose "lines" %q still shows byte for byte.
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	start := bytes.LastIndexByte(want[:i], '\n') + 1
	t.Errorf("%s:%d drifted from the golden file (%d vs %d bytes); rerun with UPDATE_GOLDEN=1 only if the change is intended\ngot:  %q\nwant: %q",
		path, bytes.Count(want[:start], []byte{'\n'})+1, len(got), len(want), line(got, start), line(want, start))
}

// line returns the line of b starting at offset start, capped for display.
func line(b []byte, start int) []byte {
	b = b[start:]
	if n := bytes.IndexByte(b, '\n'); n >= 0 {
		b = b[:n]
	}
	if len(b) > 160 {
		b = b[:160]
	}
	return b
}

// JSON checks v's two-space-indented encoding, with a trailing newline,
// against the file at path.
func JSON(t testing.TB, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	Check(t, path, append(b, '\n'))
}

// Digest fingerprints an artefact too large to commit verbatim.
type Digest struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// Fingerprint returns b's length and SHA-256.
func Fingerprint(b []byte) Digest {
	sum := sha256.Sum256(b)
	return Digest{Len: len(b), SHA256: hex.EncodeToString(sum[:])}
}
