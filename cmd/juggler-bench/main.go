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
	"juggler/internal/cliflags"
	"juggler/internal/prof"
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
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
	cf := cliflags.Register(flag.CommandLine, cliflags.Tuned)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-bench:", err)
		os.Exit(1)
	}
	defer pf.Stop()

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
	fmt.Printf("juggler-bench: %d experiment(s), %s mode, seed %d\n\n", len(ids), mode, cf.Seed)

	for _, id := range ids {
		start := time.Now()
		rep := juggler.RunExperimentCfg(id, juggler.RunConfig{
			Seed: cf.Seed, Quick: *quick, Workers: sweep.Workers(cf.J),
			Shards: cf.Shards, Adapt: cf.Adapt, Inseq: cf.Inseq, Ofo: cf.Ofo,
			StampSample: cf.StampSample,
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
