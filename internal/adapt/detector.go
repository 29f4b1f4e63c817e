// Package adapt closes the loop between measurement and tuning: a
// constant-memory, data-plane reordering detector (after Zheng/Yu/
// Rexford's in-switch sketch design) feeds a controller that drives
// Juggler's inseq_timeout / ofo_timeout and eviction aggressiveness from
// live estimates instead of static provisioning.
//
// The detector is a per-host sketch: a fixed, power-of-two array of
// slots, each claimed by one flow fingerprint at a time and tracking that
// flow's highest-seen sequence watermark plus the arrival time of the
// packet that set it. A packet arriving with a sequence number below its
// slot's watermark was overtaken in the fabric; the time since the
// watermark arrival ("lateness") is a direct lower bound on the path
// skew an ofo_timeout must ride out. Memory never grows with flow
// count — collisions degrade coverage (packets counted Unmeasured), not
// correctness, and reference.go keeps an exact map-based oracle for
// differential testing of that claim.
//
// Determinism: all state is fixed arrays plus scalar EWMAs updated in
// arrival order; two same-seed runs produce identical estimates.
package adapt

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Verdict classifies one observed packet.
type Verdict uint8

// Per-packet observation outcomes.
const (
	// VerdictSkipped: no payload (pure ACK/control) — nothing to order.
	VerdictSkipped Verdict = iota
	// VerdictUnmeasured: the flow's sketch slot is claimed by another
	// fingerprint, so the packet could not be measured (coverage loss,
	// never a false reordering verdict).
	VerdictUnmeasured
	// VerdictInOrder: the packet advanced (or started) its slot watermark.
	VerdictInOrder
	// VerdictReordered: the packet arrived below its slot watermark — it
	// was overtaken in flight (or is a retransmission/duplicate, which
	// the GRO layer cannot distinguish at this point either).
	VerdictReordered
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSkipped:
		return "skipped"
	case VerdictUnmeasured:
		return "unmeasured"
	case VerdictInOrder:
		return "in-order"
	case VerdictReordered:
		return "reordered"
	}
	return "verdict?"
}

// Sample is one packet's full measurement: the verdict plus, for
// reordered packets, the lateness evidence. The differential fuzz
// compares these field-by-field against the exact reference.
type Sample struct {
	Verdict Verdict
	// Lateness is now minus the watermark packet's arrival — how long the
	// overtaken packet trailed the packet that passed it. Valid only for
	// VerdictReordered.
	Lateness time.Duration
}

// Sketch tuning.
const (
	// sketchSlots is the sketch size, a power of two: 16 KB of state
	// regardless of flow count.
	sketchSlots = 1024
	// claimTTL is how long an idle slot claim blocks other flows before
	// it can be stolen. Shorter TTLs recover coverage faster after flow
	// churn at the price of losing a quiet flow's watermark.
	claimTTL = 10 * time.Millisecond
	// maxSkewSample caps the lateness fed into the skew estimators. Late
	// arrivals beyond it are still counted reordered, but their lateness
	// is attributed to loss retransmission rather than path skew — an RTO
	// retransmit trails by a full RTO, and letting it into the EWMA would
	// drag ofo_timeout to its ceiling.
	maxSkewSample = time.Millisecond
)

// EWMA smoothing: skew uses alpha = 1/8 (responsive — it feeds a
// controller with its own hysteresis); the coalesce estimate uses 1/16
// (interrupt moderation is far less bursty).
const (
	skewAlpha     = 1.0 / 8
	coalesceAlpha = 1.0 / 16
)

// slot is one sketch cell: the claiming flow's fingerprint, its sequence
// watermark (end of the highest-seen range), and the watermark packet's
// arrival time.
type slot struct {
	fp  uint32
	end uint32
	t   sim.Time
}

// Estimates is a point-in-time snapshot of the detector's counters and
// smoothed estimates.
type Estimates struct {
	// Packets counts every data packet observed; Measured the subset that
	// reached a slot it owned; Unmeasured the collision losses; Steals
	// the idle-claim takeovers.
	Packets, Measured, Unmeasured, Steals uint64
	// Reordered counts measured packets that arrived below the watermark.
	Reordered uint64
	// ReorderRate is Reordered/Measured (0 when nothing measured).
	ReorderRate float64
	// SkewEWMA is the smoothed lateness of reordered arrivals — the live
	// estimate of the skew an ofo_timeout must cover.
	SkewEWMA time.Duration
	// CoalesceEWMA is the smoothed NIC-ring sojourn (NICRx to NAPIPoll),
	// the interrupt-coalescing delay of the paper's tau_0 term.
	CoalesceEWMA time.Duration
}

// Detector is the per-host reordering sketch. Not safe for concurrent
// use; in this codebase each simulation owns one.
type Detector struct {
	slots []slot
	mask  uint32
	// claimTTL is the package constant; only the fuzz target shrinks it,
	// together with the slot array, to reach collisions and steals.
	claimTTL time.Duration

	pkts, measured, unmeasured, steals, reordered uint64

	skewEWMA     float64  // ns
	coalesceEWMA float64  // ns
	winMax       sim.Time // max lateness since last TakeWindowMax, as ns count
}

// NewDetector builds an empty sketch.
func NewDetector() *Detector {
	return &Detector{slots: make([]slot, sketchSlots), mask: sketchSlots - 1, claimTTL: claimTTL}
}

// Observe measures one arriving data packet at virtual time now and
// returns its full sample. It is on the per-packet datapath: zero
// allocations, a handful of branches, one slot probe.
func (d *Detector) Observe(p *packet.Packet, now sim.Time) Sample {
	// The NICRx -> NAPIPoll sojourn is the interrupt-coalescing delay
	// (tau_0); it is measurable on every packet, ordered or not.
	if rx := p.Stamps[packet.HopNICRx]; rx != 0 {
		if poll := p.Stamps[packet.HopNAPIPoll]; poll >= rx {
			d.coalesceEWMA += (float64(poll.Sub(rx)) - d.coalesceEWMA) * coalesceAlpha
		}
	}
	if p.PayloadLen <= 0 {
		return Sample{Verdict: VerdictSkipped}
	}
	d.pkts++
	h := p.FlowHash
	if h == 0 {
		h = p.Flow.Hash(0)
	}
	fp := h
	if fp == 0 {
		fp = 1 // 0 means "slot empty"
	}
	sl := &d.slots[h&d.mask]
	if sl.fp != fp {
		if sl.fp != 0 {
			if now.Sub(sl.t) < d.claimTTL {
				// Live claim by another flow: coverage loss, not error.
				d.unmeasured++
				return Sample{Verdict: VerdictUnmeasured}
			}
			d.steals++
		}
		sl.fp = fp
		sl.end = p.EndSeq()
		sl.t = now
		d.measured++
		return Sample{Verdict: VerdictInOrder}
	}
	d.measured++
	if !packet.SeqLess(p.Seq, sl.end) {
		// At or past the watermark: the flow advanced in order.
		sl.end = p.EndSeq()
		sl.t = now
		return Sample{Verdict: VerdictInOrder}
	}
	// Below the watermark: this packet was overtaken.
	d.reordered++
	s := Sample{Verdict: VerdictReordered, Lateness: now.Sub(sl.t)}
	if lateNs := sim.Time(s.Lateness); lateNs >= 0 && s.Lateness <= maxSkewSample {
		d.skewEWMA += (float64(lateNs) - d.skewEWMA) * skewAlpha
		if lateNs > d.winMax {
			d.winMax = lateNs
		}
	}
	// A straggler can still extend the range (partial overlap past the
	// watermark); keep the watermark monotone if it does.
	if end := p.EndSeq(); packet.SeqLess(sl.end, end) {
		sl.end = end
		sl.t = now
	}
	return s
}

// Snapshot returns the current counters and estimates.
func (d *Detector) Snapshot() Estimates {
	e := Estimates{
		Packets: d.pkts, Measured: d.measured, Unmeasured: d.unmeasured,
		Steals: d.steals, Reordered: d.reordered,
		SkewEWMA:     time.Duration(d.skewEWMA),
		CoalesceEWMA: time.Duration(d.coalesceEWMA),
	}
	if d.measured > 0 {
		e.ReorderRate = float64(d.reordered) / float64(d.measured)
	}
	return e
}

// TakeWindowMax returns the maximum (capped) lateness observed since the
// previous call and resets the window — the controller's per-tick peak
// detector.
func (d *Detector) TakeWindowMax() time.Duration {
	m := d.winMax
	d.winMax = 0
	return time.Duration(m)
}
