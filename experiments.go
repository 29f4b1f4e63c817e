package juggler

import (
	"encoding/csv"
	"io"
	"time"

	"juggler/internal/experiments"
	"juggler/internal/sweep"
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
	// Workers is the sweep fan-out width: parameter points of a sweeping
	// experiment run on this many goroutines (0 or 1 = serial). The report
	// is byte-identical to the serial run at any width.
	Workers int
	// Shards is the intra-sim lane count: the sharded receive datapath
	// (the shardedrx experiment) spreads its logical RX queues over this
	// many real goroutines under a conservative virtual-time barrier
	// (0 or 1 = serial, the byte-exact reference). Reports are
	// byte-identical at any lane count. When Shards > 1 the sweep width
	// is re-budgeted so total goroutines stay at the Workers request
	// (sweep.EffectiveWorkers) — `-j 8 -shards 4` runs 2 sweep workers
	// of 4 lanes each, not 32 goroutines.
	Shards int
	// Adapt attaches the internal/adapt controller to every receiver:
	// timeouts become starting points that self-tune against the live
	// reordering estimate.
	Adapt bool
	// Inseq/Ofo override the experiment's starting inseq/ofo timeouts
	// (0 keeps each experiment's own provisioning).
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
	w := cfg.Workers
	if cfg.Shards > 1 && w > 1 {
		// Shared goroutine budget: the Workers request is the total, so
		// the sweep width shrinks to leave room for each point's lanes.
		// (0/1 stays serial: its meaning is "no sweep fan-out", not a
		// budget to divide.)
		w = sweep.EffectiveWorkers(w, cfg.Shards)
	}
	t := experiments.Run(id, experiments.Options{
		Seed: cfg.Seed, Quick: cfg.Quick, Workers: w,
		Shards: cfg.Shards, Adapt: cfg.Adapt, Inseq: cfg.Inseq, Ofo: cfg.Ofo,
		StampSample: cfg.StampSample,
	})
	if t == nil {
		return nil
	}
	return &Report{ID: t.ID, Title: t.Title, Columns: t.Columns,
		Rows: t.Rows, Notes: t.Notes}
}
