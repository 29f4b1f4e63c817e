package juggler

import "juggler/internal/experiments"

// Report is one experiment's regenerated table: the same rows/series the
// paper plots for that figure. Fprint renders it as an aligned text table.
type Report = experiments.Table

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
	return experiments.Run(id, experiments.Options{Seed: seed, Quick: quick})
}
