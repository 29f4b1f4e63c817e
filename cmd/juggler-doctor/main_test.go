package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"juggler/internal/cliflags"
)

// reorderedTrace writes a 20 ms single-flow trace in which every fourth
// packet arrives 40 us late — steady reordering the adapt controller
// retunes against.
func reorderedTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	const n, mtu = 16000, 1460
	for i := 0; i < n; i++ {
		at := float64(i) * 1.25
		if i%4 == 1 {
			at += 40
		}
		fmt.Fprintf(&b, "%.2fus f %d %d\n", at, i*mtu, mtu)
	}
	path := filepath.Join(t.TempDir(), "reorder.trace")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayAdaptReachesDiagnosis: -adapt on -replay attaches the
// controller, and its retunes land in the diagnosis.
func TestReplayAdaptReachesDiagnosis(t *testing.T) {
	path := reorderedTrace(t)
	for _, adapt := range []bool{false, true} {
		_, d := diagnoseReplay(path, &cliflags.Flags{Seed: 1, StampSample: 1, Adapt: adapt})
		if retuned := d.RetuneTotal > 0 && len(d.Retunes) > 0; retuned != adapt {
			t.Fatalf("-adapt=%v replay: %d retunes in the diagnosis", adapt, d.RetuneTotal)
		}
	}
}
