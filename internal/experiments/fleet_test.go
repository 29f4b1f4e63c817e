package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"juggler/internal/telemetry/fleet"
)

// TestFleetSweepDeterministic: the fleet table must be byte-identical
// at any -j width — each scenario point owns its simulation and rows
// commit by index. It runs 8 sweep workers of one lane each, the width
// TestAllExperimentsRunQuick's 2-workers-by-4-lanes pass does not reach.
func TestFleetSweepDeterministic(t *testing.T) {
	o := Options{Seed: 1, Quick: true}
	o.Workers = 1
	t1 := fleetExperiment(o)
	o.Workers = 8
	t8 := fleetExperiment(o)
	if !reflect.DeepEqual(t1.Rows, t8.Rows) {
		t.Fatalf("rows differ across -j widths:\n-j1: %v\n-j8: %v", t1.Rows, t8.Rows)
	}
}

// TestFleetReportFlagsImpairedHost: the impaired receiver must rank
// worst, the clean run must stay healthy, and both reports must
// conform to the fleet schema.
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
	if impaired.FleetHealth != "degraded" {
		t.Fatalf("impaired fleet health = %q, want degraded", impaired.FleetHealth)
	}
	// The clean baseline must be healthy — the bulk cwnd cap keeps the
	// fabric queues from swamping the SLO, so the impairment is the only
	// thing that can degrade a host.
	if clean.FleetHealth != "healthy" {
		t.Fatalf("clean fleet health = %q, want healthy (burn windows: %d)",
			clean.FleetHealth, clean.Fleet.SLOBurnWindows)
	}
}
