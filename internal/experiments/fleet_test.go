package experiments

import (
	"bytes"
	"testing"

	"juggler/internal/telemetry/fleet"
)

// TestFleetReportFlagsImpairedHost: both reports must conform to the
// fleet schema, and the impaired receiver must rank worst with a higher
// score than the clean run's worst host. The fleet-health verdicts are
// fleetShape's claims.
func TestFleetReportFlagsImpairedHost(t *testing.T) {
	o := Options{Seed: 1, Quick: true, Workers: 1}
	clean := CollectFleetReport(o, false)
	impaired := CollectFleetReport(o, true)

	for name, r := range map[string]*fleet.Report{"clean": clean, "impaired": impaired} {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		violations, err := fleet.Validate(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) != 0 {
			t.Fatalf("%s report schema violations: %v", name, violations)
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
