// Package fleet is the cluster-scale observability layer: mergeable,
// fixed-size, zero-steady-state-allocation telemetry sketches plus the
// per-host rollup and fleet aggregation machinery that turns them into
// one deterministic cluster health report.
//
// The design rule is "merge, don't sample-and-ship" (DESIGN.md §4.13):
// every vantage point (a host, or one RX-queue lane of a sharded host)
// owns a private sketch it updates with O(1) work and zero allocations;
// rollups happen only at report time by merging sketches upward —
// lane -> host -> ToR -> fleet — in a fixed structural order (queue
// index, then host registration order). Merging is associative and
// order-deterministic, so the fleet report is byte-identical at any
// `-j` sweep width and any `-shards` lane count: the execution schedule
// never touches the merge order.
//
// Two sketches cover the report's needs:
//
//   - stats.QuantileSketch: an HDR-style log-linear histogram for latency
//     tails (p50/p99/p999) with a bounded relative value error of
//     1/32 (3.125%) and an exact-count merge (element-wise add). It lives
//     in internal/stats because the metrics registry's histograms are the
//     same type; it is differentially tested against stats.Sampler there.
//   - TopK: a space-saving heavy-hitter tracker for "top flows by
//     bytes" / "top hosts by retransmits" with the classic
//     (count, err) overestimate guarantees and a deterministic merge,
//     differentially fuzzed against an exact reference in this
//     package's tests.
package fleet

import "time"

// Config tunes the fleet aggregator. The zero value is usable.
type Config struct {
	// Cadence is the virtual-time sampling period for per-host rollup
	// counters and SLO burn windows (default 1ms).
	Cadence time.Duration

	// SLO is the per-delivery end-to-end sojourn target (TCP send to
	// app delivery); deliveries slower than this are SLO violations.
	// Default 2ms.
	SLO time.Duration

	// BurnPerMille is the per-window violation budget in parts per
	// thousand: a cadence window whose violation fraction exceeds it
	// counts as one burned window (default 1, i.e. 0.1%).
	BurnPerMille int64

	// StragglerPct flags a host as a straggler when its p99 sojourn
	// exceeds this percentage of the fleet-merged p99 (default 150).
	StragglerPct int64

	// StragglerMinSamples is the minimum delivery count before a host
	// can be flagged (default 64) — a host that saw three packets has
	// no tail to diverge.
	StragglerMinSamples int64

	// TopK sizes the heavy-hitter trackers (default 8).
	TopK int
}

func (c Config) withDefaults() Config {
	if c.Cadence <= 0 {
		c.Cadence = time.Millisecond
	}
	if c.SLO <= 0 {
		c.SLO = 2 * time.Millisecond
	}
	if c.BurnPerMille <= 0 {
		c.BurnPerMille = 1
	}
	if c.StragglerPct <= 0 {
		c.StragglerPct = 150
	}
	if c.StragglerMinSamples <= 0 {
		c.StragglerMinSamples = 64
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	return c
}
