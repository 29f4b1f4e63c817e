// Command juggler-chaos runs the deterministic fault-injection scenarios
// (internal/chaos) against a receive-offload stack and reports every
// invariant violation the end-to-end checker observed.
//
// The run is bit-reproducible: for a fixed -seed, -scenario, -stack and
// -intensity the report is byte-identical across invocations, so a failing
// seed is a complete repro. The exit status is 1 when any invariant was
// violated (or any transfer failed to complete), 0 otherwise.
//
// Usage:
//
//	juggler-chaos                      # full sweep against Juggler
//	juggler-chaos -scenario reorder -stack vanilla   # expected to FAIL
//	juggler-chaos -seed 7 -intensity 2 -quick
//	juggler-chaos -j 0                 # scenarios in parallel, one worker per core
//	juggler-chaos -list
//
// -j N runs the scenarios on N worker goroutines (0 = one per core); each
// scenario is an independent simulation, and reports are printed in
// scenario order, so the output is byte-identical to the serial run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/sweep"
	"juggler/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	scenario := flag.String("scenario", "all", "comma-separated scenario names, or 'all'")
	stack := flag.String("stack", "juggler", "receive offload under test: juggler, vanilla, linkedlist, none")
	intensity := flag.Float64("intensity", 1, "fault-level multiplier over each scenario's default")
	quick := flag.Bool("quick", false, "shrink transfer sizes (~4x faster)")
	list := flag.Bool("list", false, "list scenarios and exit")
	cf := cliflags.Register(flag.CommandLine, cliflags.Tuned)
	flag.Parse()

	if *list {
		for _, name := range experiments.ChaosScenarios() {
			fmt.Printf("  %-10s %s\n", name, experiments.ChaosScenarioDesc(name))
		}
		return nil
	}

	kind, err := testbed.ParseOffloadKind(*stack)
	if err != nil {
		return err
	}
	if *intensity <= 0 {
		return fmt.Errorf("intensity must be positive, got %v", *intensity)
	}
	names := experiments.ChaosScenarios()
	if *scenario != "all" {
		names = strings.Split(*scenario, ",")
	}

	// Each scenario is an independent simulation, so they fan out across
	// workers; rendering into per-scenario buffers and printing by index
	// keeps the output byte-identical to the serial run.
	opts := cf.Options()
	opts.Quick = *quick
	type result struct {
		out bytes.Buffer
		bad bool
		err error
	}
	results := sweep.Map(opts.Workers, len(names), func(i int) *result {
		r := &result{}
		rep, err := experiments.RunChaosScenario(strings.TrimSpace(names[i]), kind, opts, *intensity)
		if err != nil {
			r.err = err
			return r
		}
		rep.Fprint(&r.out)
		r.bad = rep.Failed() || rep.Completed < rep.Flows
		return r
	})
	failed := 0
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		os.Stdout.Write(r.out.Bytes())
		if r.bad {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios violated invariants", failed, len(names))
	}
	fmt.Printf("all %d scenarios clean (stack=%s seed=%d intensity=%.2f)\n",
		len(names), kind, cf.Seed, *intensity)
	return nil
}
