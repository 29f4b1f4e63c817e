// Command juggler-bench regenerates the paper's evaluation: one table per
// figure, printed in the same rows/series the paper plots.
//
// Usage:
//
//	juggler-bench [-quick] [-seed N] [-j N] [-list] [experiment ...]
//
// With no experiment arguments, every registered experiment runs in a
// deterministic order; an unknown ID exits 2 before any runs. -quick
// shrinks sweeps and durations roughly 10x for a fast smoke pass. -j N is
// the goroutine budget (0 = one per core): each experiment's parameter
// sweep runs on N workers, and shardedrx spreads its RX queues over N
// lanes; tables are byte-identical to the serial (-j 1) run at any width.
// -adapt, -inseq and -ofo reach only the chaos, fleet and shardedrx
// experiments (-inseq/-ofo also adaptive); the others ignore them.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err == errUsage {
		os.Exit(2)
	} else if err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "juggler-bench:", err)
		os.Exit(1)
	}
}

// errUsage marks a bad flag or an unknown ID, already reported on stderr.
var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("juggler-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink sweeps and durations (~10x faster)")
	list := fs.Bool("list", false, "list available experiments and exit")
	csvDir := fs.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
	cf := cliflags.Register(fs)
	pf := prof.Register(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return err
	} else if err != nil {
		return errUsage
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "  %-16s %s\n", id, experiments.Describe(id))
		}
		return nil
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	if i := slices.IndexFunc(ids, func(id string) bool { return !slices.Contains(experiments.IDs(), id) }); i >= 0 {
		fmt.Fprintf(stderr, "juggler-bench: unknown experiment %q (try -list)\n", ids[i])
		return errUsage
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop()

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(stdout, "juggler-bench: %d experiment(s), %s mode, seed %d\n\n", len(ids), mode, cf.Seed)
	o := cf.Options()
	o.Quick = *quick
	for _, id := range ids {
		start := time.Now()
		rep := experiments.Run(id, o)
		rep.Fprint(stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "  [%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
