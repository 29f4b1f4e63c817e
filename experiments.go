package juggler

import (
	"io"

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

// Experiments lists the available experiment IDs (fig1, fig9, fig10,
// fig12..fig16, fig18, fig20, latency, lossofo, abl-*).
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one table/figure of the paper's evaluation.
// seed drives all randomness (identical seeds reproduce identical
// reports); quick shrinks sweeps and durations ~10x for smoke runs. It
// returns nil for unknown IDs.
func RunExperiment(id string, seed int64, quick bool) *Report {
	t := experiments.Run(id, experiments.Options{Seed: seed, Quick: quick})
	if t == nil {
		return nil
	}
	return &Report{ID: t.ID, Title: t.Title, Columns: t.Columns,
		Rows: t.Rows, Notes: t.Notes}
}
