// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated stack. Each experiment is a function
// from Options to a Table whose rows mirror the series the paper plots;
// the registry maps stable experiment IDs (fig1, fig9, ..., ablations) to
// those functions for the CLI and the benchmark harness.
//
// Absolute numbers are not expected to match the paper's hardware testbed;
// the shapes — who wins, by what rough factor, where crossovers fall — are
// the reproduction targets. EXPERIMENTS.md records paper-vs-measured for
// every row.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"juggler/internal/core"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness; identical seeds reproduce bit-identical
	// tables.
	Seed int64
	// Quick shrinks sweeps and durations (~10x faster) for smoke runs.
	Quick bool
	// AttachTelemetry, when non-nil, is called on the simulation(s) the
	// experiment creates, before any topology is built — the hook installs
	// a telemetry.Sink so components pick it up at construction
	// (juggler-doctor -experiment plugs in here). Sweeping experiments run
	// it on exactly one designated traced point — the last one — so
	// exports reflect the last point whether the sweep ran serially or on
	// -j workers.
	AttachTelemetry func(s *sim.Sim)

	// Workers is the run's goroutine budget (the CLIs' -j flag). Sweeping
	// experiments run their parameter points on min(Workers, points)
	// goroutines via sweep.Map; shardedrx, a single point, spreads its 8
	// logical RX queues over max(1, Workers) lanes under the conservative
	// epoch barrier in internal/sim. 0 or 1 means serial. Results are
	// committed by point index and merged by queue index, so tables are
	// byte-identical at any budget.
	Workers int

	// Adapt attaches the internal/adapt detector+controller to the
	// receiver (the CLIs' -adapt flag): the configured timeouts become the
	// starting point and the controller retunes them from live reordering
	// estimates. Only chaos (and RunChaosScenario), fleet and shardedrx
	// read it; the adaptive experiment runs both settings by design, and
	// every other experiment ignores it. The zero value preserves
	// byte-identical output.
	Adapt bool

	// Inseq / Ofo override the receiver's inseq_timeout / ofo_timeout
	// starting values (the CLIs' -inseq/-ofo flags) in the experiments
	// that read Adapt, and in adaptive. The others ignore them. Zero keeps
	// each experiment's own provisioning rule.
	Inseq, Ofo time.Duration

	// StampSample is the 1-in-N hop-stamp sampling rate (the CLIs'
	// -stamp-sample flag): the sender NIC stamps every Nth wire packet and
	// the rest skip forensic hop stamping, latency attribution and the
	// per-packet decision records. 0 or 1 stamps everything — the exact
	// default, preserving byte-identical output for existing experiments.
	StampSample int
}

// DefaultOptions is the full-fidelity configuration.
func DefaultOptions() Options { return Options{Seed: 1} }

// scale returns d, shrunk in Quick mode.
func (o Options) scale(d time.Duration) time.Duration {
	if o.Quick {
		return d / 4
	}
	return d
}

// newSim creates one experiment simulation seeded with o.Seed and applies
// the per-sim Options to it: the hop-stamp sampler (on every sim, traced
// or not, so such runs are identical at any sweep width) and the
// AttachTelemetry hook (on the designated traced sim only — point() nils
// it elsewhere).
func (o Options) newSim() *sim.Sim {
	s := sim.New(o.Seed)
	packet.AttachStampSampler(s, o.StampSample)
	if o.AttachTelemetry != nil {
		o.AttachTelemetry(s)
	}
	return s
}

// tune applies the -inseq/-ofo overrides to a receiver's Juggler config.
func (o Options) tune(c *core.Config) {
	if o.Inseq > 0 {
		c.InseqTimeout = o.Inseq
	}
	if o.Ofo > 0 {
		c.OfoTimeout = o.Ofo
	}
}

// point derives the Options for parameter point i of an n-point sweep:
// identical to o except AttachTelemetry survives only on the designated
// traced point — the last one. That keeps the single-sink contract
// ("exports reflect the last point run") and makes the hook safe to call
// from sweep.Map workers, since exactly one point ever invokes it.
func (o Options) point(i, n int) Options {
	if i != n-1 {
		o.AttachTelemetry = nil
	}
	return o
}

// telemetryNote footnotes a table with the attached sink's flight-recorder
// summary — which metrics backed the rows, and from how many layers. No-op
// when the run had no telemetry.
func telemetryNote(t *Table, s *sim.Sim) {
	k := telemetry.FromSim(s)
	if k == nil {
		return
	}
	t.Note("telemetry: %d events from %d layers (%s)",
		k.Recorder.Total, k.Recorder.Layers(), k.Recorder.Summary())
}

// Table is one experiment's result, printable as an aligned text table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends one formatted row.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// errLookup marks a Values error, or a claim's: the table lacks the cells
// the claim reads, so the claim cannot be judged.
var errLookup = errors.New("lookup")

// Values returns column col of every row whose leading cells equal
// prefix, parsed as numbers (a trailing "%" or "x" is dropped). An unknown
// column, a prefix no row has, or a cell that is not a number is an error
// wrapping errLookup.
func (t *Table) Values(col string, prefix ...string) ([]float64, error) {
	c := slices.Index(t.Columns, col)
	if c < 0 {
		return nil, fmt.Errorf("%w: %s has no column %q", errLookup, t.ID, col)
	}
	var out []float64
	for _, row := range t.Rows {
		if len(prefix) > len(row) || !slices.Equal(row[:len(prefix)], prefix) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimRight(row[c], "%x"), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %s's %s of row %v is not a number", errLookup, t.ID, col, row)
		}
		out = append(out, v)
	}
	if out == nil {
		return nil, fmt.Errorf("%w: %s has no row %v", errLookup, t.ID, prefix)
	}
	return out, nil
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner is an experiment entry point.
type Runner func(Options) *Table

// Claim is one shape the paper states about an experiment's table.
type Claim struct {
	// Name labels the claim within its experiment.
	Name string
	// Source is where the claim comes from: a paper section, or, for an
	// experiment that is not a paper figure, the component it checks
	// ("invariant checker", "adapt controller", "fleet watchdog").
	Source string
	// Check returns nil when the table shows the claim.
	Check func(*Table) error
	// Known maps each seed on which Check fails today to the number of the
	// deviation (EXPERIMENTS.md, "Global deviations") the failure names.
	Known map[int64]int
}

// Shape is the list of claims an experiment's table must show.
type Shape []Claim

// entry is one registered experiment: its runner, its one-line
// description, and the shape its table must show.
type entry struct {
	run   Runner
	desc  string
	shape Shape
}

// registry maps experiment IDs to their entries.
var registry = map[string]entry{}

// register is called from each experiment file's init.
func register(id string, e entry) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = e
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's one-line description.
func Describe(id string) string { return registry[id].desc }

// Run executes one experiment by ID; it returns nil for unknown IDs.
func Run(id string, o Options) *Table {
	e, ok := registry[id]
	if !ok {
		return nil
	}
	return e.run(o)
}

// Formatting helpers shared by the experiment files.

func fGbps(bps float64) string      { return fmt.Sprintf("%.2f", bps/1e9) }
func fPct(frac float64) string      { return fmt.Sprintf("%.1f%%", frac*100) }
func fUs(sec float64) string        { return fmt.Sprintf("%.0f", sec*1e6) }
func fMs(sec float64) string        { return fmt.Sprintf("%.3f", sec*1e3) }
func fDurUs(d time.Duration) string { return fmt.Sprintf("%d", d.Microseconds()) }
func fF(v float64) string           { return fmt.Sprintf("%.2f", v) }
func fI(v int64) string             { return fmt.Sprintf("%d", v) }
