package fleet

import (
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
)

// Counters is the rollup snapshot one vantage point fills in on every
// sampling tick. Retunes/Retransmissions/OfoHolds/Drops are cumulative
// (the probe keeps the latest snapshot); BufferedBytes, SegPoolLive and
// TableFlows are instantaneous gauges (the probe also tracks their
// peaks across ticks). Delivery volume is not sampled — the probe
// counts it exactly at the delivery tap.
type Counters struct {
	// BufferedBytes is the reordering buffer occupancy right now.
	BufferedBytes int64
	// SegPoolLive is the segment pool's live (unreturned) count — the
	// leak canary.
	SegPoolLive int64
	// TableFlows is the gro_table occupancy (flow-table entries).
	TableFlows int64
	// Retunes counts adaptive-controller timeout actuations.
	Retunes int64
	// Retransmissions counts receiver-observed retransmitted packets.
	Retransmissions int64
	// OfoHolds counts reorder-induced holds: segments the offload layer
	// held for out-of-order resequencing before delivery (flushes by
	// ofo_timeout plus loss inferences).
	OfoHolds int64
	// Drops counts segments lost at the host (backlog, conntrack, ...).
	Drops int64
}

// LaneProbe is one vantage point's private telemetry state: a sojourn
// sketch, a flow heavy-hitter tracker, SLO window accounting, and the
// latest Counters snapshot. A serial host owns exactly one lane; a
// sharded host owns one per RX queue, each written only from the
// queue's own goroutine — probes are never shared across lanes, which
// is what keeps Observe lock-free and race-free.
type LaneProbe struct {
	cfg Config

	sojourn stats.QuantileSketch
	flows   *TopK

	// sample, when set, fills c with the vantage point's current
	// counters; called on every tick and on SampleNow.
	sample func(c *Counters)

	last         Counters
	peakBuffered int64
	peakTable    int64
	samples      int64 // ticks taken

	delivBytes    int64
	delivSegs     int64
	delivPkts     int64
	sloViolations int64

	// SLO burn accounting: a window is one cadence tick; it burns when
	// its violation fraction exceeds the budget.
	winGood, winBad int64
	windows         int64
	burnWindows     int64

	ticker *sim.Ticker
}

func newLaneProbe(cfg Config) *LaneProbe {
	return &LaneProbe{cfg: cfg, flows: NewTopK(cfg.TopK)}
}

// SetSample installs the counter snapshot callback.
func (l *LaneProbe) SetSample(fn func(c *Counters)) { l.sample = fn }

// ObserveDelivery records one delivered segment: end-to-end sojourn
// (TCP send to delivery, when both stamps are present), SLO accounting,
// and the flow byte tracker. Zero allocations; safe on a nil probe.
func (l *LaneProbe) ObserveDelivery(seg *packet.Segment) {
	if l == nil {
		return
	}
	l.delivSegs++
	l.delivBytes += int64(seg.Bytes)
	l.delivPkts += int64(seg.Pkts)
	if seg.Bytes > 0 {
		l.flows.Observe(FlowKey(seg.Flow), seg.Flow, int64(seg.Bytes))
	}
	if seg.SkipStamps {
		return
	}
	sent, delivered := seg.Stamps[packet.HopTCPSend], seg.Stamps[packet.HopDeliver]
	if sent == 0 || delivered < sent {
		return
	}
	d := int64(delivered - sent)
	l.sojourn.Observe(d)
	if d > int64(l.cfg.SLO) {
		l.winBad++
		l.sloViolations++
	} else {
		l.winGood++
	}
}

// SampleNow takes one sampling tick immediately: snapshot the counters,
// fold the gauges' peaks, and close the current SLO window. Called by
// the cadence ticker, or manually by harnesses that sample at epoch
// boundaries. Zero allocations.
func (l *LaneProbe) SampleNow() {
	if l.sample != nil {
		l.sample(&l.last)
	}
	if l.last.BufferedBytes > l.peakBuffered {
		l.peakBuffered = l.last.BufferedBytes
	}
	if l.last.TableFlows > l.peakTable {
		l.peakTable = l.last.TableFlows
	}
	l.samples++
	if l.winGood+l.winBad > 0 {
		l.windows++
		if l.winBad*1000 > (l.winGood+l.winBad)*l.cfg.BurnPerMille {
			l.burnWindows++
		}
		l.winGood, l.winBad = 0, 0
	}
}

// Start begins cadence sampling on s (the vantage point's own lane sim
// for sharded hosts). Stop the returned probe with Stop before draining
// the event queue to quiescence.
func (l *LaneProbe) Start(s *sim.Sim) {
	if l.ticker != nil {
		return
	}
	l.ticker = sim.NewTicker(s, l.cfg.Cadence, l.SampleNow)
	l.ticker.Start()
}

// Stop halts cadence sampling and takes one final sample so the report
// reflects end-of-run counters.
func (l *LaneProbe) Stop() {
	if l.ticker != nil {
		l.ticker.Stop()
		l.ticker = nil
	}
	l.SampleNow()
}

// HostProbe is one host's set of lane probes, merged in queue order at
// report time.
type HostProbe struct {
	Name  string
	ToR   int
	lanes []*LaneProbe
}

// Lane returns lane i's probe (serial hosts use Lane(0)).
func (h *HostProbe) Lane(i int) *LaneProbe { return h.lanes[i] }

// hostRoll is one host's lane merge (queue order).
type hostRoll struct {
	sketch stats.QuantileSketch
	flows  *TopK
	c      Counters

	delivBytes, delivSegs, delivPkts int64
	peakBuffered, peakTable          int64
	sloViolations                    int64
	windows, burnWindows             int64
}

// rollup merges the host's lanes in queue order.
func (h *HostProbe) rollup() hostRoll {
	r := hostRoll{flows: NewTopK(h.lanes[0].cfg.TopK)}
	for _, l := range h.lanes {
		r.sketch.Merge(&l.sojourn)
		r.flows.Merge(l.flows)
		r.delivBytes += l.delivBytes
		r.delivSegs += l.delivSegs
		r.delivPkts += l.delivPkts
		c := &r.c
		c.BufferedBytes += l.last.BufferedBytes
		c.SegPoolLive += l.last.SegPoolLive
		c.TableFlows += l.last.TableFlows
		c.Retunes += l.last.Retunes
		c.Retransmissions += l.last.Retransmissions
		c.OfoHolds += l.last.OfoHolds
		c.Drops += l.last.Drops
		r.peakBuffered += l.peakBuffered
		r.peakTable += l.peakTable
		r.sloViolations += l.sloViolations
		r.windows += l.windows
		r.burnWindows += l.burnWindows
	}
	return r
}

// Aggregator owns the fleet's probes and produces the merged Report.
// Registration order is structural (the cluster builds hosts in a fixed
// order), so every rollup — host, ToR, fleet — walks the same sequence
// no matter how the run was scheduled.
type Aggregator struct {
	cfg   Config
	hosts []*HostProbe

	// fct is the fleet-level flow/RPC completion-time sketch, fed by
	// workload completion hooks.
	fct stats.QuantileSketch
}

// NewAggregator returns an empty aggregator.
func NewAggregator(cfg Config) *Aggregator {
	return &Aggregator{cfg: cfg.withDefaults()}
}

// Config returns the (defaulted) configuration.
func (a *Aggregator) Config() Config { return a.cfg }

// AddHost registers a host with the given lane count (1 for serial
// hosts, the RX queue count for sharded ones) and returns its probe.
func (a *Aggregator) AddHost(name string, tor, lanes int) *HostProbe {
	if lanes < 1 {
		lanes = 1
	}
	h := &HostProbe{Name: name, ToR: tor}
	for i := 0; i < lanes; i++ {
		h.lanes = append(h.lanes, newLaneProbe(a.cfg))
	}
	a.hosts = append(a.hosts, h)
	return h
}

// ObserveFCT records one flow/RPC completion time into the fleet sketch.
func (a *Aggregator) ObserveFCT(ns int64) { a.fct.Observe(ns) }

// Hosts returns the registered probes in registration order.
func (a *Aggregator) Hosts() []*HostProbe { return a.hosts }

// StopAll stops every lane ticker and takes final samples, in
// registration then lane order.
func (a *Aggregator) StopAll() {
	for _, h := range a.hosts {
		for _, l := range h.lanes {
			l.Stop()
		}
	}
}
