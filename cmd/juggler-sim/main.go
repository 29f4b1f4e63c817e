// Command juggler-sim runs ad-hoc simulations on the two-host reordering
// apparatus and prints throughput, CPU, batching, and flow-table
// statistics — a quick way to explore how a stack behaves under a given
// amount of reordering.
//
// Usage:
//
//	juggler-sim [flags]
//
// -reorder accepts a comma-separated list of delays; each value is an
// independent simulation (a sweep point), and -j N runs the points on N
// worker goroutines (0 = one per core). Reports are rendered per point
// and printed in list order, so the output is byte-identical to the
// serial (-j 1) run at any width.
//
// Examples:
//
//	# vanilla GRO vs 500us of reordering
//	juggler-sim -stack vanilla -reorder 500us
//
//	# Juggler with a deliberately small ofo_timeout
//	juggler-sim -stack juggler -reorder 500us -ofo 100us
//
//	# 64 concurrent flows with 0.1% loss
//	juggler-sim -flows 64 -reorder 250us -drop 0.001
//
//	# a tau sweep, one worker per core
//	juggler-sim -reorder 0,100us,250us,500us,750us -j 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"juggler"
	"juggler/internal/cliflags"
	"juggler/internal/prof"
	"juggler/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-sim:", err)
		os.Exit(1)
	}
}

// pointConfig is everything one sweep point needs, shared read-only across
// workers.
type pointConfig struct {
	kind     juggler.Stack
	rate     juggler.Rate
	tun      juggler.Tuning
	drop     float64
	flows    int
	dur      time.Duration
	seed     int64
	traceN   int
	maxFlows int
	sample   int
}

// run executes the simulation sweep and returns an error when any point
// failed to move data — so scripted callers (CI smoke tests) see a
// non-zero exit instead of a plausible-looking report over a dead
// transfer.
func run() error {
	stack := flag.String("stack", "juggler", "receiver stack: juggler | vanilla | linkedlist | none")
	rateG := flag.Int("rate", 10, "link rate in Gb/s")
	reorder := flag.String("reorder", "500us", "reordering delay tau, or a comma-separated sweep (0 = in order)")
	drop := flag.Float64("drop", 0, "receiver-side drop probability")
	maxFlows := flag.Int("maxflows", 64, "Juggler gro_table size")
	flows := flag.Int("flows", 1, "number of concurrent bulk flows")
	dur := flag.Duration("dur", 200*time.Millisecond, "measurement duration (after 50ms warm-up)")
	traceN := flag.Int("trace", 0, "dump the last N Juggler events after each point (0 = off)")
	cf := cliflags.Register(flag.CommandLine)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop()

	var kind juggler.Stack
	switch *stack {
	case "juggler":
		kind = juggler.StackJuggler
	case "vanilla":
		kind = juggler.StackVanilla
	case "linkedlist":
		kind = juggler.StackLinkedList
	case "none":
		kind = juggler.StackNone
	default:
		return fmt.Errorf("unknown stack %q", *stack)
	}

	taus, err := parseReorder(*reorder)
	if err != nil {
		return err
	}

	rate := juggler.Rate(*rateG) * juggler.Gbps
	tun := juggler.DefaultTuning(rate)
	if cf.Inseq > 0 {
		tun.InseqTimeout = cf.Inseq
	}
	if cf.Ofo > 0 {
		tun.OfoTimeout = cf.Ofo
	}
	tun.MaxFlows = *maxFlows
	tun.Adapt = cf.Adapt

	cfg := pointConfig{kind: kind, rate: rate, tun: tun, drop: *drop,
		flows: *flows, dur: *dur, seed: cf.Seed, traceN: *traceN,
		maxFlows: *maxFlows, sample: cf.StampSample}

	// Each tau is an independent simulation; render each report into its
	// own buffer and print them in list order so -j N output matches -j 1.
	type result struct {
		out  bytes.Buffer
		dead bool
	}
	results := sweep.Map(sweep.Workers(cf.J), len(taus), func(i int) *result {
		r := &result{}
		r.dead = !runPoint(&r.out, cfg, taus[i])
		return r
	})
	dead := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		os.Stdout.Write(r.out.Bytes())
		if r.dead {
			dead++
		}
	}
	if dead > 0 {
		return fmt.Errorf("%d of %d points delivered no bytes over the %v measurement window",
			dead, len(taus), *dur)
	}
	return nil
}

// runPoint simulates one reordering delay and writes its report to w. It
// reports whether any bytes were delivered during the measurement window.
func runPoint(w io.Writer, cfg pointConfig, tau time.Duration) bool {
	p := juggler.NewReorderPair(juggler.ReorderPairConfig{
		Rate: cfg.rate, ReorderDelay: tau, DropProb: cfg.drop,
		Receiver: cfg.kind, Tuning: cfg.tun, Seed: cfg.seed,
		StampSample: cfg.sample,
	})
	if cfg.traceN > 0 {
		p.EnableTrace(cfg.traceN)
	}
	fs := make([]*juggler.Flow, cfg.flows)
	var pace juggler.Rate
	if cfg.flows > 1 {
		pace = cfg.rate / juggler.Rate(cfg.flows)
	}
	for i := range fs {
		fs[i] = p.AddBulkFlow(pace)
	}

	p.Run(50 * time.Millisecond)
	for _, f := range fs {
		f.Throughput() // reset windows
	}
	p.Run(cfg.dur)

	var total juggler.Rate
	for _, f := range fs {
		total += f.Throughput()
	}
	st := p.ReceiverStats()

	fmt.Fprintf(w, "stack            %s\n", cfg.kind)
	fmt.Fprintf(w, "reordering       %v (drop %.3g%%)\n", tau, cfg.drop*100)
	fmt.Fprintf(w, "throughput       %v of %v\n", total, cfg.rate)
	fmt.Fprintf(w, "batching         %.1f MTUs/segment\n", st.BatchingMTUs)
	fmt.Fprintf(w, "rx core          %.1f%%\n", st.RXCoreUtil*100)
	fmt.Fprintf(w, "app core         %.1f%%\n", st.AppCoreUtil*100)
	ooo := 0.0
	if st.SegmentsIn > 0 {
		ooo = float64(st.OOOSegments) / float64(st.SegmentsIn) * 100
	}
	fmt.Fprintf(w, "tcp segments     %d (%.1f%% out of order)\n", st.SegmentsIn, ooo)
	fmt.Fprintf(w, "acks sent        %d\n", st.AcksSent)
	if cfg.kind == juggler.StackJuggler {
		fmt.Fprintf(w, "active flows     %d (table bound %d)\n", st.ActiveFlows, cfg.maxFlows)
	}
	if st.DroppedSegments > 0 {
		fmt.Fprintf(w, "backlog drops    %d\n", st.DroppedSegments)
	}
	if cfg.traceN > 0 {
		fmt.Fprintln(w, "\n-- juggler event trace (most recent) --")
		fmt.Fprintln(w, p.DumpTrace(w))
	}
	return total > 0
}

// parseReorder parses the -reorder flag: one duration, or a comma-separated
// sweep list.
func parseReorder(s string) ([]time.Duration, error) {
	var taus []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "0" { // bare zero, as in -reorder 0,100us
			taus = append(taus, 0)
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("bad -reorder value %q: %v", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("-reorder value %v is negative", d)
		}
		taus = append(taus, d)
	}
	if len(taus) == 0 {
		return nil, fmt.Errorf("-reorder lists no delays")
	}
	return taus, nil
}
