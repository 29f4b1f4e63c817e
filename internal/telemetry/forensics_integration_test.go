package telemetry_test

import (
	"bytes"
	"testing"

	"juggler/internal/experiments"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
)

// chaosDiagnosis runs one chaos scenario with a forensics sink attached and
// returns the resulting diagnosis plus the sink itself.
func chaosDiagnosis(t *testing.T, scenario string, seed int64) (*telemetry.Diagnosis, *telemetry.Sink) {
	t.Helper()
	var sink *telemetry.Sink
	o := experiments.Options{Seed: seed, Quick: true, Workers: 1}
	o.AttachTelemetry = func(s *sim.Sim) { sink = telemetry.New(s, telemetry.Options{}) }
	rep, err := experiments.RunChaosScenario(scenario, testbed.OffloadJuggler, o, 1)
	if err != nil {
		t.Fatalf("chaos %s: %v", scenario, err)
	}
	if rep.Failed() {
		t.Fatalf("chaos %s violated invariants: %+v", scenario, rep)
	}
	if sink == nil {
		t.Fatal("AttachTelemetry was never called")
	}
	d := sink.Diagnose(telemetry.DiagnosisMeta{Scenario: scenario, Stack: "juggler", Seed: seed, Intensity: 1})
	return d, sink
}

// TestSojournTelescoping is the accounting identity the whole attribution
// design rests on (see attribution.go): over a real reordered run, the
// per-span sojourn sums add up exactly to the end-to-end total — no
// latency is double-counted or dropped, even for partially stamped
// packets whose missing hops fold into the next span.
func TestSojournTelescoping(t *testing.T) {
	d, _ := chaosDiagnosis(t, "reorder", 1)
	if d.Delivered == 0 {
		t.Fatal("chaos run attributed no deliveries")
	}
	var spanTotal int64
	for _, s := range d.Spans {
		spanTotal += s.TotalNs
	}
	if spanTotal != d.EndToEnd.TotalNs {
		t.Fatalf("spans sum to %dns but end-to-end total is %dns (delta %d over %d deliveries)",
			spanTotal, d.EndToEnd.TotalNs, d.EndToEnd.TotalNs-spanTotal, d.Delivered)
	}
	if d.EndToEnd.Count != d.Delivered {
		t.Fatalf("e2e count %d != delivered %d", d.EndToEnd.Count, d.Delivered)
	}
	// The run must have produced provenance too, not just latency numbers.
	if len(d.Decisions) == 0 {
		t.Fatal("no decisions recorded — decisions not wired into the datapath")
	}
}

// TestDiagnosisDeterministic demands byte-identical diagnosis JSON from
// same-seed runs — the property juggler-doctor's width test
// (TestScenariosWidthIndependent) and all replay workflows build on.
func TestDiagnosisDeterministic(t *testing.T) {
	render := func() []byte {
		d, _ := chaosDiagnosis(t, "storm", 7)
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed diagnoses differ (%d vs %d bytes)", len(a), len(b))
	}
	// And a different seed must actually change the report — otherwise the
	// equality above proves nothing.
	d2, _ := chaosDiagnosis(t, "storm", 8)
	var buf2 bytes.Buffer
	if err := d2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf2.Bytes()) {
		t.Fatal("seed 7 and seed 8 produced identical diagnoses — report is not seed-sensitive")
	}
}
