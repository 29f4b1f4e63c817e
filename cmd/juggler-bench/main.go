// Command juggler-bench regenerates the paper's evaluation: one table per
// figure, printed in the same rows/series the paper plots.
//
// Usage:
//
//	juggler-bench [-quick] [-seed N] [-j N] [-list] [experiment ...]
//
// With no experiment arguments, every registered experiment runs in a
// deterministic order. -quick shrinks sweeps and durations roughly 10x for
// a fast smoke pass. -j N runs each experiment's parameter sweep on N
// worker goroutines (0 = one per core); tables are byte-identical to the
// serial (-j 1) run at any width.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"juggler"
	"juggler/internal/prof"
	"juggler/internal/reasm"
	"juggler/internal/sweep"
)

// writeCSV stores one experiment's table under dir.
func writeCSV(dir string, rep *juggler.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, rep.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return rep.WriteCSV(f)
}

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps and durations (~10x faster)")
	seed := flag.Int64("seed", 1, "simulation seed (identical seeds reproduce bit-identical tables)")
	workers := flag.Int("j", 1, "sweep worker goroutines per experiment (0 = one per core); output is identical at any width")
	shards := flag.Int("shards", 1, "intra-sim lanes for the sharded receive datapath (shardedrx); output is identical at any count, and -j is re-budgeted so total goroutines stay at the -j request")
	backend := flag.String("backend", "seglist", "Juggler reassembly backend: seglist | batchsort | bitmap | ring")
	adapt := flag.Bool("adapt", false, "attach the self-tuning controller to every receiver")
	inseq := flag.Duration("inseq", 0, "override starting inseq_timeout (0 = experiment default)")
	ofo := flag.Duration("ofo", 0, "override starting ofo_timeout (0 = experiment default)")
	stampSample := flag.Int("stamp-sample", 1, "hop-stamp 1-in-N sampling rate (1 = every packet, exact)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-bench:", err)
		os.Exit(1)
	}
	defer pf.Stop()
	if _, err := reasm.ParseKind(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-bench:", err)
		os.Exit(1)
	}

	if *list {
		for _, id := range juggler.Experiments() {
			fmt.Printf("  %-16s %s\n", id, juggler.DescribeExperiment(id))
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = juggler.Experiments()
	}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("juggler-bench: %d experiment(s), %s mode, seed %d\n\n", len(ids), mode, *seed)

	for _, id := range ids {
		start := time.Now()
		rep := juggler.RunExperimentCfg(id, juggler.RunConfig{
			Seed: *seed, Quick: *quick, Workers: sweep.Workers(*workers),
			Shards:  *shards,
			Backend: *backend, Adapt: *adapt, Inseq: *inseq, Ofo: *ofo,
			StampSample: *stampSample,
		})
		if rep == nil {
			fmt.Fprintf(os.Stderr, "juggler-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		rep.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				fmt.Fprintln(os.Stderr, "juggler-bench:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("  [%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
