package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/golden"
	"juggler/internal/testbed"
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

// TestScenariosWidthIndependent: `-scenario all -quick -json` writes the
// same report bytes whether the catalog runs serially or on 8 workers,
// and those bytes match testdata/diagnosis_golden.json.
func TestScenariosWidthIndependent(t *testing.T) {
	var reports [2]bytes.Buffer
	for i, j := range []int{1, 8} {
		cf := &cliflags.Flags{Seed: 1, J: j, StampSample: 1}
		diags, _ := diagnoseScenarios(experiments.ChaosScenarios(), testbed.OffloadJuggler, cf, true, 1)
		if err := writeJSON(&reports[i], diags); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Fatalf("diagnosis JSON differs between -j 1 and -j 8 (%d vs %d bytes)", reports[0].Len(), reports[1].Len())
	}
	golden.JSON(t, filepath.Join("testdata", "diagnosis_golden.json"), golden.Fingerprint(reports[0].Bytes()))
}

// TestFleetReportGolden: the `-fleet -quick -json` report matches
// testdata/fleet_golden.json.
func TestFleetReportGolden(t *testing.T) {
	o := (&cliflags.Flags{Seed: 1, J: 1, StampSample: 1}).Options()
	o.Quick, o.Workers = true, 1
	var buf bytes.Buffer
	if err := experiments.CollectFleetReport(o, true).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, filepath.Join("testdata", "fleet_golden.json"), golden.Fingerprint(buf.Bytes()))
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
