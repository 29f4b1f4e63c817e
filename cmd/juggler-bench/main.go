// Command juggler-bench regenerates the paper's evaluation: one table per
// figure, printed in the same rows/series the paper plots.
//
// Usage:
//
//	juggler-bench [-quick] [-seed N] [-j N] [-list] [experiment ...]
//
// With no experiment arguments, every registered experiment runs in a
// deterministic order. -quick shrinks sweeps and durations roughly 10x for
// a fast smoke pass. -j N is the goroutine budget (0 = one per core): each
// experiment's parameter sweep runs on N workers, and shardedrx spreads
// its RX queues over N lanes; tables are byte-identical to the serial
// (-j 1) run at any width. -adapt, -inseq and -ofo reach only the chaos,
// fleet and shardedrx experiments (-inseq/-ofo also adaptive); the others
// ignore them.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"juggler/internal/cliflags"
	"juggler/internal/experiments"
	"juggler/internal/prof"
)

// writeCSV stores one experiment's table under dir, header row first.
func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return csv.NewWriter(f).WriteAll(append([][]string{t.Columns}, t.Rows...))
}

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps and durations (~10x faster)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
	cf := cliflags.Register(flag.CommandLine)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-bench:", err)
		os.Exit(1)
	}
	defer pf.Stop()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-16s %s\n", id, experiments.Describe(id))
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("juggler-bench: %d experiment(s), %s mode, seed %d\n\n", len(ids), mode, cf.Seed)

	o := cf.Options()
	o.Quick = *quick
	for _, id := range ids {
		start := time.Now()
		rep := experiments.Run(id, o)
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
