package adapt

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Reference is the exact, unbounded-memory oracle for the sketch
// detector: one watermark per five-tuple in a map, no collisions, no
// claim stealing. It exists for differential testing (FuzzAdaptDetector
// and the unit tests compare Detector samples against it) and is not on
// any datapath.
//
// The per-flow update rule is byte-for-byte the same as the sketch's
// slot rule, so for a flow whose fingerprint never collides the two
// produce identical samples — the property the fuzz target checks.
type Reference struct {
	cfg   DetectorConfig
	flows map[packet.FiveTuple]*refFlow

	pkts, measured, reordered uint64

	skewEWMA     float64
	coalesceEWMA float64
}

type refFlow struct {
	end uint32
	t   sim.Time
}

// NewReference builds the oracle with the same tuning as the sketch it
// shadows (only MaxSkewSample matters; Slots and ClaimTTL have no exact-
// map analogue).
func NewReference(cfg DetectorConfig) *Reference {
	return &Reference{cfg: cfg.withDefaults(), flows: make(map[packet.FiveTuple]*refFlow)}
}

// Observe measures one packet exactly. Every data packet is measured —
// the oracle has no Unmeasured or stolen states.
func (r *Reference) Observe(p *packet.Packet, now sim.Time) Sample {
	if rx := p.Stamps[packet.HopNICRx]; rx != 0 {
		if poll := p.Stamps[packet.HopNAPIPoll]; poll >= rx {
			r.coalesceEWMA += (float64(poll.Sub(rx)) - r.coalesceEWMA) * coalesceAlpha
		}
	}
	if p.PayloadLen <= 0 {
		return Sample{Verdict: VerdictSkipped}
	}
	r.pkts++
	f := r.flows[p.Flow]
	if f == nil {
		f = &refFlow{end: p.EndSeq(), t: now}
		r.flows[p.Flow] = f
		r.measured++
		return Sample{Verdict: VerdictInOrder}
	}
	r.measured++
	if !packet.SeqLess(p.Seq, f.end) {
		f.end = p.EndSeq()
		f.t = now
		return Sample{Verdict: VerdictInOrder}
	}
	r.reordered++
	s := Sample{Verdict: VerdictReordered, Lateness: now.Sub(f.t)}
	if lateNs := sim.Time(s.Lateness); lateNs >= 0 && s.Lateness <= r.cfg.MaxSkewSample {
		r.skewEWMA += (float64(lateNs) - r.skewEWMA) * skewAlpha
	}
	if end := p.EndSeq(); packet.SeqLess(f.end, end) {
		f.end = end
		f.t = now
	}
	return s
}

// Snapshot returns the oracle's exact counters and estimates. Unmeasured
// and Steals are always zero.
func (r *Reference) Snapshot() Estimates {
	e := Estimates{
		Packets: r.pkts, Measured: r.measured, Reordered: r.reordered,
		SkewEWMA:     time.Duration(r.skewEWMA),
		CoalesceEWMA: time.Duration(r.coalesceEWMA),
	}
	if r.measured > 0 {
		e.ReorderRate = float64(r.reordered) / float64(r.measured)
	}
	return e
}
