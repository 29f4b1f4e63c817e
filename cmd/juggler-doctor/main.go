// Command juggler-doctor answers "why was this flow slow / flushed /
// evicted?" It runs one thing with the telemetry sink attached, reports
// what happened, diagnoses it and optionally exports the recording. The
// diagnosis is the per-layer latency attribution (which hop of tcp-send →
// fabric → NIC → softirq → gro_table hold ate the time), the decision
// audit trail (every Table-2 flush with the condition that fired, phase
// transitions, evictions, inseq/ofo timeouts), and the anomaly
// watchdog's findings.
//
// Usage:
//
//	juggler-doctor [-scenario reorder|all|a,b,...] [-stack juggler|vanilla]
//	               [-intensity F] [-quick] [-seed N] [-j N] [-adapt]
//	juggler-doctor -experiment fig6 [-quick] [-seed N] [-j N]
//	juggler-doctor -replay run.txt [-inseq D] [-ofo D] [-adapt]
//	juggler-doctor -fleet [-quick] [-seed N]
//	juggler-doctor -list
//
// Scenario mode (the default) runs the deterministic fault-injection
// scenarios (internal/chaos) and prints, ahead of each diagnosis, the
// report of every invariant violation the end-to-end checker observed.
// It exits 1 when any scenario violated an invariant or left a transfer
// incomplete; a violated run's verdict is "invariant-violated".
//
// -experiment runs one registered experiment, prints its table and a
// per-layer record summary, and diagnoses the traced point. Sweeping
// experiments attach the sink only to their last point, so the table
// covers the sweep and the diagnosis and exports describe that point.
//
// -replay feeds a textual packet trace (internal/replay documents the
// format) through a standalone Juggler, printing every arrival and
// delivery and then Juggler's counters before the diagnosis. A recorded
// run (-record) replays too: its "ev" lines are decoded forward-
// compatibly, so ops unknown to this build are surfaced in the diagnosis,
// not dropped. The Figure-6 build-up ships as testdata/fig6.trace:
//
//	$ juggler-doctor -replay testdata/fig6.trace -inseq 15us -ofo 50us
//
// -fleet runs the fleet experiment's impaired cluster with the fleet
// telemetry aggregator attached and prints the ranked host-health table;
// -json/-check then apply to the fleet report and its embedded
// fleet.schema.json instead of the diagnosis schema.
//
// -json writes the machine-readable report ("-" = stdout, suppressing the
// human report); with several scenarios it holds an array, one object per
// scenario. -check validates the JSON against the embedded copy of
// diagnosis.schema.json and exits 1 on mismatch.
//
// -explain and the exports need exactly one run: one scenario, an
// experiment or a replay. -explain queries the flight recorder for one
// flow's decisions covering a sequence number (-events sets how many
// records the recorder keeps):
//
//	$ juggler-doctor -scenario storm -explain "flow=0 seq=1460000"
//
// -trace writes a Chrome/Perfetto trace-event JSON timeline (open in
// https://ui.perfetto.dev), -pcap a pcapng capture (Wireshark/tshark),
// -metrics a Prometheus text-format snapshot, and -record the recorded
// run as replayable "ev" lines.
//
// Determinism: everything is computed from virtual-time state. The
// scenarios and sweep points run on -j workers and are committed by
// index, so the same seed produces byte-identical output at any width.
package main

import (
	"bytes"
	_ "embed"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/jsonschema"
	"juggler/internal/packet"
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

// errUsage marks a bad command line: the flag package has already printed
// the problem and the usage text.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); err {
	case nil, flag.ErrHelp:
	case errUsage:
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "juggler-doctor:", err)
		os.Exit(1)
	}
}

// diagnosed is one run the doctor diagnosed: the sink that recorded it,
// its diagnosis and, in scenario mode, the chaos checker's report.
type diagnosed struct {
	sink *telemetry.Sink
	diag *telemetry.Diagnosis
	rep  *experiments.ChaosReport
}

// An export writes one artifact of a run's recording.
type export struct {
	path  string
	what  string
	write func(k *telemetry.Sink, w io.Writer) error
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("juggler-doctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "reorder", "comma-separated chaos scenarios to run and diagnose, or 'all' (see -list)")
	stack := fs.String("stack", "juggler", "receive-offload stack under test: juggler, vanilla, linkedlist or none")
	intensity := fs.Float64("intensity", 1, "fault intensity multiplier (1.0 = catalog default)")
	expID := fs.String("experiment", "", "run this experiment (see -list) and diagnose its traced point, the last sweep point")
	replayPath := fs.String("replay", "", "replay and diagnose a packet trace / recorded run instead of running a scenario")
	fleetMode := fs.Bool("fleet", false, "run the fleet experiment's impaired cluster and print the ranked host-health report (-json/-check apply to the fleet report)")
	quick := fs.Bool("quick", false, "shrink transfers, sweeps and durations (~4-10x faster)")
	jsonOut := fs.String("json", "", "write the JSON diagnosis here ('-' = stdout, suppressing the human report)")
	check := fs.Bool("check", false, "validate the JSON diagnosis against the embedded schema; exit 1 on mismatch")
	explainQ := fs.String("explain", "", `decision provenance query, e.g. "flow=0 seq=292000"`)
	traceOut := fs.String("trace", "", "write the run's Perfetto/Chrome trace-event JSON here")
	pcapOut := fs.String("pcap", "", "write the run's pcapng packet capture here")
	metricsOut := fs.String("metrics", "", "write the run's Prometheus text-format metrics snapshot here")
	recordOut := fs.String("record", "", "write the recorded run (replayable 'ev' record lines) here")
	eventCap := fs.Int("events", 1<<16, "flight-recorder capacity (records)")
	list := fs.Bool("list", false, "list chaos scenarios and experiments and exit")
	cf := cliflags.Register(fs)
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return errUsage
	}

	if *list {
		fmt.Fprintln(stdout, "chaos scenarios (-scenario):")
		for _, name := range experiments.ChaosScenarios() {
			fmt.Fprintf(stdout, "  %-10s %s\n", name, experiments.ChaosScenarioDesc(name))
		}
		fmt.Fprintln(stdout, "experiments (-experiment):")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "  %-16s %s\n", id, experiments.Describe(id))
		}
		return nil
	}

	exports := []export{
		{*traceOut, "trace-event JSON", (*telemetry.Sink).WriteTrace},
		{*pcapOut, "pcapng capture", (*telemetry.Sink).WritePcap},
		{*metricsOut, "metrics snapshot", func(k *telemetry.Sink, w io.Writer) error { return k.Metrics.WriteProm(w) }},
		{*recordOut, "recorded run", func(k *telemetry.Sink, w io.Writer) error { return k.Recorder.WriteEvents(w) }},
	}
	modes := 0
	for _, on := range []bool{*expID != "", *replayPath != "", *fleetMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-experiment, -replay and -fleet are exclusive")
	}
	var names []string
	if modes == 0 {
		names = experiments.ChaosScenarios()
		if *scenario != "all" {
			names = strings.Split(*scenario, ",")
			for i := range names {
				names[i] = strings.TrimSpace(names[i])
			}
		}
	}
	oneRun := *explainQ != ""
	for _, e := range exports {
		oneRun = oneRun || e.path != ""
	}
	if oneRun && (*fleetMode || len(names) > 1) {
		return errors.New("-explain, -trace, -pcap, -metrics and -record need exactly one run: one scenario, an experiment or a replay")
	}

	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop()

	if *fleetMode {
		return runFleet(stdout, stderr, cf, *quick, *jsonOut, *check)
	}

	human, notes := stdout, stdout
	if *jsonOut == "-" {
		human, notes = io.Discard, stderr // JSON owns stdout
	}
	topts := telemetry.Options{EventCap: *eventCap}
	var runs []diagnosed
	var failure error
	switch {
	case *replayPath != "":
		r, err := diagnoseReplay(human, *replayPath, cf, topts)
		if err != nil {
			return err
		}
		runs = []diagnosed{r}
	case *expID != "":
		r, err := diagnoseExperiment(human, *expID, cf, *quick, topts)
		if err != nil {
			return err
		}
		runs = []diagnosed{r}
	default:
		kind, err := testbed.ParseOffloadKind(*stack)
		if err != nil {
			return err
		}
		if *intensity <= 0 {
			return fmt.Errorf("intensity must be positive, got %v", *intensity)
		}
		if runs, err = diagnoseScenarios(names, kind, cf, *quick, *intensity, topts); err != nil {
			return err
		}
		failed := 0
		for _, r := range runs {
			if r.rep.Failed() || r.rep.Completed < r.rep.Flows {
				failed++
			}
		}
		if failed > 0 {
			failure = fmt.Errorf("%d of %d scenarios violated invariants", failed, len(names))
		}
	}

	for i, r := range runs {
		if i > 0 {
			fmt.Fprintln(human)
		}
		if r.rep != nil {
			r.rep.Fprint(human)
			fmt.Fprintln(human)
		}
		r.diag.Fprint(human)
	}

	if *explainQ != "" {
		fmt.Fprintln(notes)
		if err := explain(notes, runs[0].sink, *explainQ); err != nil {
			return err
		}
	}
	for _, e := range exports {
		if e.path == "" {
			continue
		}
		var buf bytes.Buffer
		if err := e.write(runs[0].sink, &buf); err != nil {
			return err
		}
		if err := os.WriteFile(e.path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote %s to %s\n", e.what, e.path)
	}

	diags := make([]*telemetry.Diagnosis, len(runs))
	for i, r := range runs {
		diags[i] = r.diag
	}
	if err := writeReport(stdout, stderr, *jsonOut, *check, func(w io.Writer) error { return writeJSON(w, diags) },
		func([]byte) ([]string, error) { return checkSchema(diags), nil },
		"schema", fmt.Sprintf("%d report(s) conform to diagnosis.schema.json", len(diags))); err != nil {
		return err
	}
	return failure
}

// writeReport renders the JSON report when -json or -check asks for it and
// writes it to jsonOut ('-' = stdout). With -check it prints validate's
// problems (prefixed what) to stderr and fails, or prints ok when there
// are none.
func writeReport(stdout, stderr io.Writer, jsonOut string, check bool, write func(io.Writer) error,
	validate func([]byte) ([]string, error), what, ok string) error {
	if jsonOut == "" && !check {
		return nil
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if jsonOut == "-" {
		if _, err := stdout.Write(buf.Bytes()); err != nil {
			return err
		}
	} else if jsonOut != "" {
		if err := os.WriteFile(jsonOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if !check {
		return nil
	}
	problems, err := validate(buf.Bytes())
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "juggler-doctor: %s: %s\n", what, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %d problem(s)", what, len(problems))
	}
	fmt.Fprintln(stderr, "juggler-doctor:", ok)
	return nil
}

// runFleet is the -fleet mode: it runs the fleet experiment's impaired
// cluster point (one receiver's ingress through a chaos reorderer +
// loss pair) with the fleet telemetry aggregator attached and prints
// the ranked host-health report. -json writes the schema-validated
// report JSON ('-' = stdout, suppressing the human table); -check
// validates it against the embedded fleet.schema.json. Byte-identical
// for the same seed.
func runFleet(stdout, stderr io.Writer, cf *cliflags.Flags, quick bool, jsonOut string, check bool) error {
	o := cf.Options()
	o.Quick, o.Workers = quick, 1
	r := experiments.CollectFleetReport(o, true)

	if jsonOut != "-" { // otherwise JSON owns stdout
		r.Fprint(stdout)
	}
	return writeReport(stdout, stderr, jsonOut, check, r.WriteJSON, fleet.Validate,
		"fleet schema", "fleet report conforms to fleet.schema.json")
}

// diagnoseScenarios runs each named scenario with a sink attached and
// returns the reports and diagnoses in name order. The sweep runs on -j
// workers; results are committed by index, so the output is identical at
// any width.
func diagnoseScenarios(names []string, kind testbed.OffloadKind, cf *cliflags.Flags, quick bool,
	intensity float64, topts telemetry.Options) ([]diagnosed, error) {
	runs := make([]diagnosed, len(names))
	base := cf.Options()
	errs := sweep.Map(base.Workers, len(names), func(i int) error {
		o := base
		o.Quick, o.Workers = quick, 1
		o.AttachTelemetry = func(s *sim.Sim) { runs[i].sink = telemetry.New(s, topts) }
		rep, err := experiments.RunChaosScenario(names[i], kind, o, intensity)
		runs[i].rep = rep
		return err
	})
	for i := range runs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rep := runs[i].rep
		d := runs[i].sink.Diagnose(telemetry.DiagnosisMeta{
			Scenario: rep.Scenario, Stack: rep.Stack, Seed: rep.Seed, Intensity: rep.Intensity,
			StampSample: cf.StampSample,
		})
		// The chaos checker's end-to-end invariants outrank the watchdog:
		// a violated run is never merely "anomalous".
		if rep.Failed() {
			d.Verdict = "invariant-violated"
		}
		runs[i].diag = d
	}
	return runs, nil
}

// diagnoseExperiment runs one registered experiment with the sink attached
// to its traced point, the last sweep point, prints the table and the
// per-layer record summary, and diagnoses that point.
func diagnoseExperiment(w io.Writer, id string, cf *cliflags.Flags, quick bool, topts telemetry.Options) (diagnosed, error) {
	o := cf.Options()
	o.Quick = quick
	var sink *telemetry.Sink
	o.AttachTelemetry = func(s *sim.Sim) { sink = telemetry.New(s, topts) }
	t := experiments.Run(id, o)
	if t == nil {
		return diagnosed{}, fmt.Errorf("unknown experiment %q (try -list)", id)
	}
	t.Fprint(w)
	if sink == nil {
		return diagnosed{}, fmt.Errorf("experiment %s created no simulation; nothing to diagnose", id)
	}
	layerSummary(w, sink)
	d := sink.Diagnose(telemetry.DiagnosisMeta{Scenario: "experiment:" + id, Stack: "as-configured",
		Seed: cf.Seed, StampSample: cf.StampSample})
	return diagnosed{sink: sink, diag: d}, nil
}

// diagnoseReplay feeds a packet trace (possibly a recorded run with "ev"
// lines) through the shared replay driver, printing every arrival and
// delivery and then Juggler's counters. An events-only recorded run has
// nothing to re-simulate: its decision provenance is the whole diagnosis.
func diagnoseReplay(w io.Writer, path string, cf *cliflags.Flags, topts telemetry.Options) (diagnosed, error) {
	tr, err := replay.ParseFile(path)
	if err != nil {
		return diagnosed{}, err
	}
	cfg := cf.Replay()
	cfg.Telemetry = topts
	cfg.OnArrive = func(tp replay.TimedPacket) {
		fmt.Fprintf(w, "%12v  arrive  %-8s seq=%-8d len=%-7d %v\n",
			tp.At, tr.FlowName(tp.Pkt.Flow), tp.Pkt.Seq, tp.Pkt.PayloadLen, tp.Pkt.Flags)
	}
	cfg.OnDeliver = func(now time.Duration, seg *packet.Segment) {
		fmt.Fprintf(w, "%12v  DELIVER %-8s seq=%-8d len=%-7d pkts=%-3d %v\n",
			now, tr.FlowName(seg.Flow), seg.Seq, seg.Bytes, seg.Pkts, seg.Flags)
	}
	j, ctl, sink := replay.Run(tr, cfg)
	st := j.Stats
	fmt.Fprintf(w, `
flows tracked     %d (active %d, inactive %d, loss %d)
flush reasons     event=%d inseq_timeout=%d ofo_timeout=%d evict=%d
pass-throughs     retransmissions=%d duplicates=%d
loss inferences   ofo_timeouts=%d (entered=%d exited=%d)
evictions         inactive=%d active=%d loss=%d
buffered now      %d bytes
`, j.TableLen(), j.ActiveLen(), j.InactiveLen(), j.LossLen(),
		st.FlushEvent, st.FlushInseqTimeout, st.FlushOfoTimeout, st.FlushEvict,
		st.Retransmissions, st.Duplicates,
		st.OfoTimeouts, st.LossRecoveryEntered, st.LossRecoveryExited,
		st.EvictionsInactive, st.EvictionsActive, st.EvictionsLoss, j.BufferedBytes())
	if ctl != nil {
		ci, co := ctl.Timeouts()
		fmt.Fprintf(w, "adapt             retunes=%d final inseq=%v ofo=%v\n",
			ctl.Stats.Retunes, ci, co)
	}
	fmt.Fprintln(w)
	layerSummary(w, sink)

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
	return diagnosed{sink: sink, diag: d}, nil
}

// layerSummary prints how many records each stack layer contributed, so
// smoke runs can assert the recording's coverage.
func layerSummary(w io.Writer, sink *telemetry.Sink) {
	rec := sink.Recorder
	fmt.Fprintf(w, "telemetry: %d events from %d layers, %d packets captured\n",
		rec.Total, rec.Layers(), sink.Capture.Len())
	for l := telemetry.LayerFabric; l <= telemetry.LayerHost; l++ {
		if n := rec.ByLayer[l]; n > 0 {
			fmt.Fprintf(w, "  layer %-8s %d events\n", l, n)
		}
	}
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

// explain parses a "flow=K seq=N" query and prints the recorded
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
	fx.Explain(w, fe.Flow, uint32(seq))
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
