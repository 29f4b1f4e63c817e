// Command juggler-trace runs one experiment (or replays a textual packet
// trace) with the cross-layer telemetry sink attached and exports the
// run's observability artifacts:
//
//   - a Chrome/Perfetto trace-event JSON timeline (-trace, open in
//     https://ui.perfetto.dev or chrome://tracing),
//   - a pcapng packet capture (-pcap, open in Wireshark/tshark),
//   - a Prometheus text-format metrics snapshot (-metrics),
//   - a recorded run of replayable "ev" event lines (-record) that
//     juggler-trace -replay and juggler-doctor -replay re-ingest.
//
// Usage:
//
//	juggler-trace [-experiment fig6] [-quick] [-seed N] \
//	              [-trace out.json] [-pcap out.pcapng] [-metrics out.prom]
//	juggler-trace -replay trace.txt [-inseq D] [-ofo D] [-adapt] ...
//
// Sweeping experiments attach the sink only to the designated traced
// point — the last one — so the exported artifacts describe the last
// point run (the table itself covers the sweep). That also makes -j N
// safe: the other points run telemetry-free on N worker goroutines
// (0 = one per core) and the table and exports stay byte-identical to
// the serial run. A per-layer event summary is printed so smoke tests
// can assert coverage.
//
// -replay feeds a textual packet trace (internal/replay documents the
// format) through a standalone Juggler instance — a scalpel for studying
// the algorithm's decisions on a precise arrival pattern. It prints every
// arrival and delivery, then Juggler's counters. The Figure-6 build-up
// scenario ships as testdata/fig6.trace:
//
//	$ cat testdata/fig6.trace
//	# packets 3, 5, 2 of flow a arrive out of order
//	0us   a  4380 1460
//	1us   a  7300 1460
//	2us   a  2920 1460
//	$ juggler-trace -replay testdata/fig6.trace -inseq 15us -ofo 50us
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/packet"
	"juggler/internal/replay"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

func main() {
	exp := flag.String("experiment", "fig6", "experiment ID to run (see -list)")
	replayPath := flag.String("replay", "", "replay a textual packet trace instead of an experiment")
	quick := flag.Bool("quick", false, "shrink sweeps and durations (~10x faster)")
	traceOut := flag.String("trace", "trace.json", "write Perfetto/Chrome trace-event JSON here ('' disables)")
	pcapOut := flag.String("pcap", "", "write a pcapng packet capture here")
	metricsOut := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot here")
	recordOut := flag.String("record", "", "write the recorded run (replayable 'ev' event lines) here")
	eventCap := flag.Int("events", 1<<16, "flight-recorder capacity (events)")
	fabricQueues := flag.Bool("fabric-queues", false, "also record per-enqueue fabric occupancy events")
	list := flag.Bool("list", false, "list available experiments and exit")
	cf := cliflags.Register(flag.CommandLine, cliflags.Tuned)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-16s %s\n", id, experiments.Describe(id))
		}
		return
	}

	opts := telemetry.Options{EventCap: *eventCap, FabricQueues: *fabricQueues}
	var sink *telemetry.Sink

	if *replayPath != "" {
		sink = runReplay(*replayPath, cf, opts)
	} else {
		o := cf.Options()
		o.Quick = *quick
		o.AttachTelemetry = func(s *sim.Sim) { sink = telemetry.New(s, opts) }
		t := experiments.Run(*exp, o)
		if t == nil {
			fmt.Fprintf(os.Stderr, "juggler-trace: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		t.Fprint(os.Stdout)
	}
	if sink == nil {
		fmt.Fprintln(os.Stderr, "juggler-trace: the run created no simulation; nothing to export")
		os.Exit(1)
	}

	rec := sink.Recorder
	fmt.Printf("telemetry: %d events from %d layers, %d packets captured\n",
		rec.Total, rec.Layers(), sink.Capture.Len())
	for l := telemetry.LayerFabric; l <= telemetry.LayerHost; l++ {
		if n := rec.ByLayer[l]; n > 0 {
			fmt.Printf("  layer %-8s %d events\n", l, n)
		}
	}

	for _, e := range []struct {
		path  string
		write func(w io.Writer) error
		what  string
	}{
		{*traceOut, sink.WriteTrace, "trace-event JSON"},
		{*pcapOut, sink.WritePcap, "pcapng capture"},
		{*metricsOut, sink.Metrics.WriteProm, "metrics snapshot"},
		{*recordOut, rec.WriteEvents, "recorded run"},
	} {
		if e.path == "" {
			continue
		}
		var buf bytes.Buffer
		if err := e.write(&buf); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(e.path, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s to %s\n", e.what, e.path)
	}
}

// runReplay feeds a parsed packet trace through the shared replay driver,
// printing every arrival and delivery and then Juggler's counters.
func runReplay(path string, cf *cliflags.Flags, opts telemetry.Options) *telemetry.Sink {
	tr, err := replay.ParseFile(path)
	if err != nil {
		fatal(err)
	}
	cfg := cf.Replay()
	cfg.Telemetry = opts
	cfg.OnArrive = func(tp replay.TimedPacket) {
		fmt.Printf("%12v  arrive  %-8s seq=%-8d len=%-7d %v\n",
			tp.At, tr.FlowName(tp.Pkt.Flow), tp.Pkt.Seq, tp.Pkt.PayloadLen, tp.Pkt.Flags)
	}
	cfg.OnDeliver = func(now time.Duration, seg *packet.Segment) {
		fmt.Printf("%12v  DELIVER %-8s seq=%-8d len=%-7d pkts=%-3d %v\n",
			now, tr.FlowName(seg.Flow), seg.Seq, seg.Bytes, seg.Pkts, seg.Flags)
	}
	j, ctl, sink := replay.Run(tr, cfg)
	st := j.Stats
	fmt.Printf(`
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
		fmt.Printf("adapt             retunes=%d final inseq=%v ofo=%v\n",
			ctl.Stats.Retunes, ci, co)
	}
	fmt.Println()
	return sink
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "juggler-trace:", err)
	os.Exit(1)
}
