package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/golden"
	"juggler/internal/telemetry"
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
		runs, err := diagnoseScenarios(experiments.ChaosScenarios(), testbed.OffloadJuggler, cf, true, 1, telemetry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		diags := make([]*telemetry.Diagnosis, len(runs))
		for k, r := range runs {
			diags[k] = r.diag
		}
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
		r, err := diagnoseReplay(io.Discard, path, &cliflags.Flags{Seed: 1, StampSample: 1, Adapt: adapt}, telemetry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if retuned := r.diag.RetuneTotal > 0 && len(r.diag.Retunes) > 0; retuned != adapt {
			t.Fatalf("-adapt=%v replay: %d retunes in the diagnosis", adapt, r.diag.RetuneTotal)
		}
	}
}

// TestVanillaReorderFails: vanilla GRO under the reorder scenario breaks
// the in-order invariant, so the run fails and the diagnosis, printed
// after the chaos report, says so.
func TestVanillaReorderFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-scenario", "reorder", "-stack", "vanilla"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 scenarios violated invariants") {
		t.Fatalf("vanilla reorder: err = %v, want a violated-invariants failure", err)
	}
	report := strings.Index(out.String(), "  VIOLATION ")
	verdict := strings.Index(out.String(), "verdict: invariant-violated")
	if report < 0 || verdict < report {
		t.Fatalf("want the chaos report's violations, then an invariant-violated verdict:\n%s", out.String())
	}
}

// TestReplayPrintsLog: -replay prints the arrive/DELIVER log and Juggler's
// counter block ahead of the diagnosis.
func TestReplayPrintsLog(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", filepath.Join("..", "..", "testdata", "fig6.trace")}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  arrive  ", "  DELIVER ", "\nflows tracked     1 ", "\nflush reasons     event=",
		"\ntelemetry: ", "\n== juggler-doctor: scenario replay:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("replay output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestOneRunFlagsNeedOneRun: -explain and every export need exactly one
// run, so -scenario all and -fleet reject them before running anything.
func TestOneRunFlagsNeedOneRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	for _, flag := range [][]string{
		{"-explain", "flow=0 seq=1"}, {"-trace", path}, {"-pcap", path}, {"-metrics", path}, {"-record", path},
	} {
		for _, mode := range [][]string{{"-scenario", "all"}, {"-scenario", "reorder,storm"}, {"-fleet"}} {
			args := append(append([]string{}, mode...), flag...)
			var out bytes.Buffer
			err := run(args, &out, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "need exactly one run") {
				t.Errorf("%v: err = %v, want a one-run rejection", args, err)
			}
			if out.Len() > 0 {
				t.Errorf("%v printed output before rejecting:\n%s", args, out.String())
			}
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a rejected run wrote %s", path)
	}
}
