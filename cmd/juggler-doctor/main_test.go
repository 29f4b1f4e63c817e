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
	"juggler/internal/telemetry/fleet"
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

// scenariosJSON is the `-scenario all -quick -json` report at seed 1
// with the catalog run on j workers.
func scenariosJSON(t *testing.T, j int) []byte {
	t.Helper()
	cf := &cliflags.Flags{Seed: 1, J: j, StampSample: 1}
	runs, err := diagnoseScenarios(experiments.ChaosScenarios(), testbed.OffloadJuggler, cf, true, 1, telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags := make([]*telemetry.Diagnosis, len(runs))
	for k, r := range runs {
		diags[k] = r.diag
	}
	var buf bytes.Buffer
	if err := writeJSON(&diags, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetJSON is the `-fleet -quick -json` report at seed 1.
func fleetJSON(t *testing.T) []byte {
	t.Helper()
	o := (&cliflags.Flags{Seed: 1, J: 1, StampSample: 1}).Options()
	o.Quick, o.Workers = true, 1
	var buf bytes.Buffer
	if err := experiments.CollectFleetReport(o, true).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fig6JSON is the `-replay testdata/fig6.trace -json` diagnosis.
func fig6JSON(t *testing.T) []byte {
	t.Helper()
	r, err := diagnoseReplay(io.Discard, fig6Trace, &cliflags.Flags{Seed: 1, StampSample: 1}, telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.diag.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var fig6Trace = filepath.Join("..", "..", "testdata", "fig6.trace")

// TestScenariosWidthIndependent: `-scenario all -quick -json` writes the
// same report bytes whether the catalog runs serially or on 8 workers,
// and those bytes match testdata/diagnosis_golden.json.
func TestScenariosWidthIndependent(t *testing.T) {
	serial, wide := scenariosJSON(t, 1), scenariosJSON(t, 8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("diagnosis JSON differs between -j 1 and -j 8 (%d vs %d bytes)", len(serial), len(wide))
	}
	golden.JSON(t, filepath.Join("testdata", "diagnosis_golden.json"), golden.Fingerprint(serial))
}

// TestFleetReportGolden: the `-fleet -quick -json` report matches
// testdata/fleet_golden.json.
func TestFleetReportGolden(t *testing.T) {
	golden.JSON(t, filepath.Join("testdata", "fleet_golden.json"), golden.Fingerprint(fleetJSON(t)))
}

// TestCheckJSONValidDocument: -check's strict round trip passes the
// scenario, fleet and fig6 replay reports.
func TestCheckJSONValidDocument(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func([]byte) error
		data  []byte
	}{
		{"scenario golden", func(b []byte) error { return telemetry.CheckJSON(b, writeJSON) }, scenariosJSON(t, 1)},
		{"fleet golden", checkFleetJSON, fleetJSON(t)},
		{"fig6 replay", checkDiagJSON, fig6JSON(t)},
	} {
		if err := c.check(c.data); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestCheckJSONViolations: -check's strict round trip fails every
// corruption of a valid report with an error that names it.
func TestCheckJSONViolations(t *testing.T) {
	fleetReport, fig6 := fleetJSON(t), fig6JSON(t)
	edit := func(b []byte, old, new string) []byte {
		if !bytes.Contains(b, []byte(old)) {
			t.Fatalf("report lacks %q", old)
		}
		return bytes.Replace(b, []byte(old), []byte(new), 1)
	}
	for _, c := range []struct {
		name  string
		check func([]byte) error
		data  []byte
		want  string // a substring of the error
	}{
		{"unknown key", checkDiagJSON, edit(fig6, `"seed": 1,`, `"seed": 1, "colour": "red",`), `unknown field "colour"`},
		{"missing key", checkDiagJSON, edit(fig6, `"intensity": 0,`, ``), "re-encoding differs"},
		{"null array", checkFleetJSON, edit(fleetReport, `"stragglers": []`, `"stragglers": null`), `null for "stragglers"`},
		{"string for number", checkDiagJSON, edit(fig6, `"seed": 1,`, `"seed": "1",`), "Diagnosis.seed of type int64"},
		{"second value", checkDiagJSON, append(append([]byte{}, fig6...), fig6...), "trailing data"},
	} {
		if err := c.check(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func checkDiagJSON(b []byte) error { return telemetry.CheckJSON(b, (*telemetry.Diagnosis).WriteJSON) }

func checkFleetJSON(b []byte) error { return telemetry.CheckJSON(b, (*fleet.Report).WriteJSON) }

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
	// The replay's diagnosis reports the sampling rate its run applied.
	r, err := diagnoseReplay(io.Discard, path, &cliflags.Flags{Seed: 1, StampSample: 4}, telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.diag.StampSample != 4 {
		t.Fatalf("-stamp-sample 4 replay: diagnosis says stamp_sample %d", r.diag.StampSample)
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
// counter block ahead of the diagnosis. Its -json report passes -check and
// matches testdata/replay_fig6_golden.json, which pins the verdict, span,
// op and count values the round trip cannot range-check.
func TestReplayPrintsLog(t *testing.T) {
	var out bytes.Buffer
	jsonPath := filepath.Join(t.TempDir(), "fig6.json")
	if err := run([]string{"-replay", fig6Trace, "-json", jsonPath, "-check"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  arrive  ", "  DELIVER ", "\nflows tracked     1 ", "\nflush reasons     event=",
		"\ntelemetry: ", "\n== juggler-doctor: scenario replay:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("replay output lacks %q:\n%s", want, out.String())
		}
	}
	report, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, filepath.Join("testdata", "replay_fig6_golden.json"), golden.Fingerprint(report))
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

// TestExplainMissPrintedOnce: a seq no retained decision covers is
// reported once, naming the flight recorder's capacity and -events.
func TestExplainMissPrintedOnce(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-scenario", "reorder", "-explain", "flow=0 seq=4000000000"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	const miss = "no retained decision covers seq 4000000000"
	if n := strings.Count(out.String(), miss); n != 1 {
		t.Fatalf("miss line printed %d times, want 1:\n%s", n, out.String())
	}
	i := strings.Index(out.String(), miss)
	line, _, _ := strings.Cut(out.String()[i:], "\n")
	if !strings.Contains(line, "65536 records") || !strings.Contains(line, "-events") {
		t.Fatalf("miss line %q should name the recorder's capacity and -events", line)
	}
}
