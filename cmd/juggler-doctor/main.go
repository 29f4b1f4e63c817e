// Command juggler-doctor answers "why was this flow slow / flushed /
// evicted?" It runs a chaos scenario (or replays a recorded run) with the
// flow-forensics subsystem attached and produces a diagnosis: per-layer
// latency attribution (which hop of tcp-send → fabric → NIC → softirq →
// gro_table hold ate the time), the decision audit trail (every Table-2
// flush with the condition that fired, phase transitions, evictions,
// inseq/ofo timeouts), and the anomaly watchdog's findings.
//
// Usage:
//
//	juggler-doctor [-scenario reorder|all] [-stack juggler|vanilla]
//	               [-intensity F] [-quick] [-seed N] [-j N]
//	               [-stamp-sample N] [-json out.json|-] [-check]
//	               [-explain "flow=K seq=N"]
//	juggler-doctor -replay run.txt [-adapt] [-json out.json] [-explain ...]
//	juggler-doctor -fleet [-json out.json|-] [-check] [-quick] [-seed N]
//
// -fleet switches to cluster-health mode: it runs the fleet
// experiment's impaired cluster (internal/experiments, "fleet") with
// the fleet telemetry aggregator attached and prints the ranked
// host-health table; -json/-check then apply to the fleet report and
// its embedded fleet.schema.json instead of the diagnosis schema.
//
// -json writes the machine-readable report ("-" = stdout, suppressing the
// human report); with -scenario all it holds an array, one object per
// scenario, diagnosed in catalog order regardless of -j. -check validates
// the JSON against the embedded copy of diagnosis.schema.json and exits 1
// on mismatch — the CI smoke job runs it. -explain queries one flow's
// audit ring for the decisions covering a sequence number:
//
//	$ juggler-doctor -scenario storm -explain "flow=0 seq=1460000"
//
// Replay mode runs the textual trace format of internal/replay through
// the same driver as juggler-trace -replay (-adapt attaches the
// controller, whose retunes join the diagnosis), including recorded runs
// (juggler-trace -record) whose "ev" lines are decoded forward-compatibly:
// kinds unknown to this build are surfaced in the diagnosis, not dropped.
//
// Determinism: everything is computed from virtual-time state, so the same
// seed produces a byte-identical report at any -j width.
package main

import (
	"bytes"
	_ "embed"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/jsonschema"
	"juggler/internal/prof"
	"juggler/internal/replay"
	"juggler/internal/sim"
	"juggler/internal/sweep"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
)

//go:embed diagnosis.schema.json
var schemaJSON []byte

func main() {
	scenario := flag.String("scenario", "reorder", "chaos scenario to diagnose, or 'all' (see -list)")
	stack := flag.String("stack", "juggler", "receive-offload stack under test: juggler, vanilla, linkedlist or none")
	intensity := flag.Float64("intensity", 1, "fault intensity multiplier (1.0 = catalog default)")
	quick := flag.Bool("quick", false, "shrink the transfers (~4x faster)")
	jsonOut := flag.String("json", "", "write the JSON diagnosis here ('-' = stdout, suppressing the human report)")
	check := flag.Bool("check", false, "validate the JSON diagnosis against the embedded schema; exit 1 on mismatch")
	explainQ := flag.String("explain", "", `audit-ring provenance query, e.g. "flow=0 seq=292000"`)
	replayPath := flag.String("replay", "", "diagnose a packet trace / recorded run instead of running a scenario")
	fleetMode := flag.Bool("fleet", false, "run the fleet experiment's impaired cluster and print the ranked host-health report (-json/-check apply to the fleet report)")
	list := flag.Bool("list", false, "list chaos scenarios and exit")
	cf := cliflags.Register(flag.CommandLine, cliflags.Base)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range experiments.ChaosScenarios() {
			fmt.Printf("  %-10s %s\n", name, experiments.ChaosScenarioDesc(name))
		}
		return
	}
	if err := pf.Start(); err != nil {
		fatal(err)
	}
	defer pf.Stop()

	if *fleetMode {
		runFleet(cf, *quick, *jsonOut, *check)
		return
	}

	var diags []*telemetry.Diagnosis
	var sinks []*telemetry.Sink

	if *replayPath != "" {
		sink, diag := diagnoseReplay(*replayPath, cf)
		diags, sinks = []*telemetry.Diagnosis{diag}, []*telemetry.Sink{sink}
	} else {
		names := []string{*scenario}
		if *scenario == "all" {
			names = experiments.ChaosScenarios()
		}
		kind, err := testbed.ParseOffloadKind(*stack)
		if err != nil {
			fatal(err)
		}
		diags, sinks = diagnoseScenarios(names, kind, cf, *quick, *intensity)
	}

	human := os.Stdout
	if *jsonOut == "-" {
		human = nil // JSON owns stdout
	}
	if human != nil {
		for i, d := range diags {
			if i > 0 {
				fmt.Fprintln(human)
			}
			d.Fprint(human)
		}
	}

	if *explainQ != "" {
		if len(sinks) != 1 {
			fatal(fmt.Errorf("-explain needs a single scenario (or -replay), not %d runs", len(sinks)))
		}
		if human == nil {
			human = os.Stderr
		}
		fmt.Fprintln(human)
		if err := explain(human, sinks[0], *explainQ); err != nil {
			fatal(err)
		}
	}

	writeReport(*jsonOut, *check, func(w io.Writer) error { return writeJSON(w, diags) },
		func([]byte) ([]string, error) { return checkSchema(diags), nil },
		"schema", fmt.Sprintf("%d report(s) conform to diagnosis.schema.json", len(diags)))
}

// writeReport renders the JSON report when -json or -check asks for it and
// writes it to jsonOut ('-' = stdout). With -check it prints validate's
// problems (prefixed what) and exits 1, or prints ok when there are none.
func writeReport(jsonOut string, check bool, write func(io.Writer) error,
	validate func([]byte) ([]string, error), what, ok string) {
	if jsonOut == "" && !check {
		return
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		fatal(err)
	}
	if jsonOut == "-" {
		os.Stdout.Write(buf.Bytes())
	} else if jsonOut != "" {
		if err := os.WriteFile(jsonOut, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
	}
	if !check {
		return
	}
	problems, err := validate(buf.Bytes())
	if err != nil {
		fatal(err)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "juggler-doctor: %s: %s\n", what, p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "juggler-doctor:", ok)
}

// runFleet is the -fleet mode: it runs the fleet experiment's impaired
// cluster point (one receiver's ingress through a chaos reorderer +
// loss pair) with the fleet telemetry aggregator attached and prints
// the ranked host-health report. -json writes the schema-validated
// report JSON ('-' = stdout, suppressing the human table); -check
// validates it against the embedded fleet.schema.json and exits 1 on
// mismatch. Byte-identical for the same seed.
func runFleet(cf *cliflags.Flags, quick bool, jsonOut string, check bool) {
	o := cf.Options()
	o.Quick, o.Workers = quick, 1
	r := experiments.CollectFleetReport(o, true)

	if jsonOut != "-" { // otherwise JSON owns stdout
		r.Fprint(os.Stdout)
	}
	writeReport(jsonOut, check, r.WriteJSON, fleet.Validate,
		"fleet schema", "fleet report conforms to fleet.schema.json")
}

// diagnoseScenarios runs each named scenario with a forensics sink
// attached and returns the diagnoses in name order. The sweep runs on
// -j workers; results are committed by index, so the output is identical
// at any width.
func diagnoseScenarios(names []string, kind testbed.OffloadKind, cf *cliflags.Flags, quick bool, intensity float64) ([]*telemetry.Diagnosis, []*telemetry.Sink) {
	sinks := make([]*telemetry.Sink, len(names))
	reps := sweep.Map(cf.Workers(), len(names), func(i int) *experiments.ChaosReport {
		o := cf.Options()
		o.Quick, o.Workers = quick, 1
		o.AttachTelemetry = func(s *sim.Sim) { sinks[i] = telemetry.New(s, telemetry.Options{}) }
		rep, err := experiments.RunChaosScenario(names[i], kind, o, intensity)
		if err != nil {
			fatal(err)
		}
		return rep
	})
	diags := make([]*telemetry.Diagnosis, len(names))
	for i, rep := range reps {
		d := sinks[i].Diagnose(telemetry.DiagnosisMeta{
			Scenario: rep.Scenario, Stack: rep.Stack, Seed: rep.Seed, Intensity: rep.Intensity,
			StampSample: cf.StampSample,
		})
		// The chaos checker's end-to-end invariants outrank the watchdog:
		// a violated run is never merely "anomalous".
		if rep.Failed() {
			d.Verdict = "invariant-violated"
		}
		diags[i] = d
	}
	return diags, sinks
}

// diagnoseReplay feeds a packet trace (possibly a recorded run with "ev"
// lines) through the shared replay driver with forensics attached. An
// events-only recorded run has nothing to re-simulate: its decision
// provenance is the whole diagnosis.
func diagnoseReplay(path string, cf *cliflags.Flags) (*telemetry.Sink, *telemetry.Diagnosis) {
	tr, err := replay.ParseFile(path)
	if err != nil {
		fatal(err)
	}
	_, _, sink := replay.Run(tr, cf.Replay())

	d := sink.Diagnose(telemetry.DiagnosisMeta{Scenario: "replay:" + path, Stack: "juggler", Seed: cf.Seed, Intensity: 0})
	// Surface the recorded run's own records: all ops tallied, plus a
	// separate section for ops this build does not know (forward-
	// compatible decoding in internal/replay).
	kinds := map[string]int64{}
	for _, e := range tr.Events {
		kinds[e.Op]++
	}
	d.RecordedEventKinds = causeCounts(kinds)
	d.UnknownEventKinds = causeCounts(tr.UnknownOps)
	return sink, d
}

// causeCounts lists a tally by descending count, then name, so reports
// are deterministic; an empty tally gives nil.
func causeCounts(tally map[string]int64) []telemetry.CauseCount {
	var cc []telemetry.CauseCount
	for cause, n := range tally {
		cc = append(cc, telemetry.CauseCount{Cause: cause, Count: n})
	}
	sort.Slice(cc, func(a, b int) bool {
		if cc[a].Count != cc[b].Count {
			return cc[a].Count > cc[b].Count
		}
		return cc[a].Cause < cc[b].Cause
	})
	return cc
}

// explain parses a "flow=K seq=N" query and prints the audit-ring
// decisions that touched that flow and sequence range.
func explain(w io.Writer, sink *telemetry.Sink, query string) error {
	var flowArg string
	var seq uint64
	haveFlow, haveSeq := false, false
	for _, tok := range strings.Fields(query) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("bad -explain token %q (want key=value)", tok)
		}
		switch k {
		case "flow":
			flowArg, haveFlow = v, true
		case "seq":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return fmt.Errorf("bad -explain seq %q", v)
			}
			seq, haveSeq = n, true
		default:
			return fmt.Errorf("unknown -explain key %q (want flow, seq)", k)
		}
	}
	if !haveFlow || !haveSeq {
		return fmt.Errorf(`-explain wants "flow=K seq=N" (K = flow index or tuple)`)
	}
	fx := sink.Forensics
	var fe *telemetry.FlowForensics
	if idx, err := strconv.Atoi(flowArg); err == nil {
		for _, cand := range fx.Flows() {
			if cand.Index == idx {
				fe = cand
				break
			}
		}
	} else {
		for _, cand := range fx.Flows() {
			if cand.Flow.String() == flowArg {
				fe = cand
				break
			}
		}
	}
	if fe == nil {
		return fmt.Errorf("no forensic state for flow %q (%d flows tracked; use the index from the per-flow section)", flowArg, len(fx.Flows()))
	}
	matches, _ := fx.Explain(w, fe.Flow, uint32(seq))
	if matches == 0 {
		fmt.Fprintf(w, "no retained decision covers seq %d — the ring keeps the most recent %d decisions per flow\n",
			seq, len(fe.Decisions()))
	}
	return nil
}

// writeJSON renders one diagnosis as an object, several as an array —
// byte-identical for the same seed at any -j width.
func writeJSON(w io.Writer, diags []*telemetry.Diagnosis) error {
	if len(diags) == 1 {
		return diags[0].WriteJSON(w)
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, d := range diags {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			return err
		}
		s := strings.TrimRight(buf.String(), "\n")
		if i < len(diags)-1 {
			s += ","
		}
		if _, err := io.WriteString(w, s+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// checkSchema validates every diagnosis against the embedded schema.
func checkSchema(diags []*telemetry.Diagnosis) []string {
	sch, err := jsonschema.Compile(schemaJSON)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	for i, d := range diags {
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			return []string{err.Error()}
		}
		for _, p := range sch.ValidateBytes(buf.Bytes()) {
			problems = append(problems, fmt.Sprintf("report %d (%s): %s", i, d.Scenario, p))
		}
	}
	return problems
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "juggler-doctor:", err)
	os.Exit(1)
}
