package juggler

import (
	"encoding/csv"
	"io"
	"time"

	"juggler/internal/experiments"
)

// Report is one experiment's regenerated table: the same rows/series the
// paper plots for that figure.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	t := experiments.Table{ID: r.ID, Title: r.Title, Columns: r.Columns,
		Rows: r.Rows, Notes: r.Notes}
	t.Fprint(w)
}

// WriteCSV emits the report as CSV (header row first).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiments lists the available experiment IDs (fig1, fig9, fig10,
// fig12..fig16, fig18, fig20, latency, lossofo, abl-*).
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunConfig tunes an experiment run beyond the defaults.
type RunConfig struct {
	// Seed drives all randomness; 0 means 1. Identical seeds reproduce
	// bit-identical reports at any worker count.
	Seed int64
	// Quick shrinks sweeps and durations ~10x for smoke runs.
	Quick bool
	// Workers is the run's goroutine budget: parameter points of a
	// sweeping experiment run on this many goroutines, and shardedrx, a
	// single point, spreads its 8 RX queues over this many lanes (0 or 1
	// = serial). The report is byte-identical to the serial run at any
	// width.
	Workers int
	// Adapt attaches the internal/adapt controller to the receiver:
	// timeouts become starting points that self-tune against the live
	// reordering estimate. Only chaos, fleet and shardedrx read it;
	// adaptive runs both settings by design, and every other experiment
	// ignores it.
	Adapt bool
	// Inseq/Ofo override the starting inseq/ofo timeouts in the
	// experiments that read Adapt, and in adaptive (0 keeps each
	// experiment's own provisioning).
	Inseq time.Duration
	Ofo   time.Duration
	// StampSample is the 1-in-N hop-stamp sampling rate: the sender NIC
	// stamps every Nth wire packet; the rest skip forensic stamping and
	// per-packet decision records. 0 or 1 stamps every packet (exact).
	StampSample int
}

// RunExperiment regenerates one table/figure of the paper's evaluation.
// quick shrinks sweeps and durations ~10x for smoke runs. It returns nil
// for unknown IDs.
func RunExperiment(id string, seed int64, quick bool) *Report {
	return RunExperimentCfg(id, RunConfig{Seed: seed, Quick: quick})
}

// RunExperimentCfg is RunExperiment with the full configuration surface
// (notably Workers for parallel sweeps). It returns nil for unknown IDs.
func RunExperimentCfg(id string, cfg RunConfig) *Report {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	t := experiments.Run(id, experiments.Options{
		Seed: cfg.Seed, Quick: cfg.Quick, Workers: cfg.Workers,
		Adapt: cfg.Adapt, Inseq: cfg.Inseq, Ofo: cfg.Ofo,
		StampSample: cfg.StampSample,
	})
	if t == nil {
		return nil
	}
	return &Report{ID: t.ID, Title: t.Title, Columns: t.Columns,
		Rows: t.Rows, Notes: t.Notes}
}
