package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"juggler/internal/golden"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
)

// TestFleetReportFlagsImpairedHost: both reports must pass the strict
// round trip, and the impaired receiver must rank worst with a higher
// score than the clean run's worst host. The fleet-health verdicts are
// fleetShape's claims. The clean report matches
// testdata/fleet_clean_golden.json (the doctor's fleet golden pins the
// impaired one).
func TestFleetReportFlagsImpairedHost(t *testing.T) {
	o := Options{Seed: 1, Quick: true, Workers: 1}
	clean := CollectFleetReport(o, false)
	impaired := CollectFleetReport(o, true)

	for name, r := range map[string]*fleet.Report{"clean": clean, "impaired": impaired} {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.CheckJSON(buf.Bytes(), (*fleet.Report).WriteJSON); err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
		if name == "clean" {
			golden.JSON(t, filepath.Join("testdata", "fleet_clean_golden.json"), golden.Fingerprint(buf.Bytes()))
		}
		if len(r.Hosts) != 6 {
			t.Fatalf("%s report has %d host rows, want 6", name, len(r.Hosts))
		}
		if r.FCTCount == 0 {
			t.Fatalf("%s report recorded no RPC completions", name)
		}
	}

	// h1-3 is the first receiver under ToR 1 — the one the impaired
	// scenario wraps in the reorderer + loss pair.
	if impaired.Hosts[0].Name != "h1-3" {
		t.Fatalf("impaired run ranks %q worst, want the impaired receiver h1-3\nrows: %+v",
			impaired.Hosts[0].Name, impaired.Hosts)
	}
	if impaired.Hosts[0].Score <= clean.Hosts[0].Score {
		t.Fatalf("impairment did not raise the worst score: clean %d, impaired %d",
			clean.Hosts[0].Score, impaired.Hosts[0].Score)
	}
}
