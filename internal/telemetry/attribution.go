package telemetry

import (
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Span identifies the sojourn between two adjacent hop stamps (packet.Hop):
// span i covers hop i -> hop i+1. This is the per-layer latency attribution
// of the forensics subsystem — the software analogue of diffing kernel skb
// timestamps (see DESIGN.md). Because spans telescope, the per-span sums
// add up exactly to end-to-end latency, which TestSojournTelescoping and
// the doctor report both rely on.
type Span uint8

const (
	// SpanTX: tcp-send -> fabric-egress. Sender-side queueing plus first-
	// link serialization.
	SpanTX Span = iota
	// SpanFabric: fabric-egress -> nic-rx. Switch queues, impairments,
	// propagation — everything on the wire path.
	SpanFabric
	// SpanCoalesce: nic-rx -> napi-poll. The NIC interrupt-coalescing
	// delay (bounded by tau in Juggler's tau-tau0 split).
	SpanCoalesce
	// SpanSoftirq: napi-poll -> gro-buffer. Zero by construction in the
	// simulation (the offload handoff is synchronous); kept so the span
	// enum mirrors the hop enum one-to-one.
	SpanSoftirq
	// SpanHold: gro-buffer -> deliver. The receive-offload hold: Juggler's
	// sorting-buffer residence plus the app-core submit queue. The
	// coalesce/hold split is exactly the quantity Wu et al. show explains
	// end-to-end latency under reordering.
	SpanHold

	// NumSpans is one less than the number of hops.
	NumSpans = packet.NumHops - 1
)

var spanNames = [NumSpans]string{"tx", "fabric", "coalesce", "softirq", "hold"}

// String names the span for metric labels and reports.
func (sp Span) String() string {
	if int(sp) < len(spanNames) {
		return spanNames[sp]
	}
	return "span?"
}

// SlowDelivery is one entry of the bounded worst-deliveries leaderboard:
// the full per-span breakdown of one delivered segment.
type SlowDelivery struct {
	At    sim.Time
	Flow  packet.FiveTuple
	Seq   uint32
	E2ENs int64
	Spans [NumSpans]int64
}

// ObserveDelivery attributes one delivered segment's end-to-end latency to
// the per-layer sojourn histograms and the worst-offender accounting; safe
// on nil. Callers stamp packet.HopDeliver on the segment first (the
// testbed host does this at its single dispatch point).
func (k *Sink) ObserveDelivery(seg *packet.Segment) {
	if k == nil {
		return
	}
	k.Forensics.observeDelivery(seg)
}

// observeDelivery computes the per-span deltas from the segment's hop
// stamps. Attribution starts at the first non-zero stamp, and a missing
// interior stamp folds its time into the span ending at the next present
// hop, so partially stamped packets (replay injection, locally minted
// ACKs) still telescope exactly to their end-to-end latency.
func (f *Forensics) observeDelivery(seg *packet.Segment) {
	if f == nil {
		return
	}
	st := &seg.Stamps
	if st[packet.HopDeliver] == 0 {
		return
	}
	first := -1
	for h := 0; h < packet.NumHops; h++ {
		if st[h] != 0 {
			first = h
			break
		}
	}
	if first < 0 || first == int(packet.HopDeliver) {
		return // nothing upstream of delivery to attribute
	}
	f.ensureAttribution()

	var spans [NumSpans]int64
	var seen [NumSpans]bool
	prev := st[first]
	for h := first + 1; h < packet.NumHops; h++ {
		if st[h] == 0 {
			continue
		}
		spans[h-1] = int64(st[h].Sub(prev))
		seen[h-1] = true
		prev = st[h]
	}
	e2e := int64(st[packet.HopDeliver].Sub(st[first]))

	worst := -1
	for i := 0; i < NumSpans; i++ {
		if !seen[i] {
			continue
		}
		f.spanHist[i].Observe(spans[i])
		if worst < 0 || spans[i] > spans[worst] {
			worst = i // ties keep the earliest span: deterministic
		}
	}
	f.e2e.Observe(e2e)
	if worst >= 0 {
		f.spanDom[worst]++
	}

	fe := f.flowFor(seg.Flow)
	if fe != nil {
		fe.Delivered++
		fe.E2ENs += e2e
		for i := 0; i < NumSpans; i++ {
			fe.SpanNs[i] += spans[i]
		}
		if worst >= 0 {
			fe.DomSpan[worst]++
		}
	}

	f.noteSlow(SlowDelivery{At: st[packet.HopDeliver], Flow: seg.Flow, Seq: seg.Seq,
		E2ENs: e2e, Spans: spans})
}

// noteSlow inserts d into the bounded slowest-deliveries leaderboard
// (sorted by descending end-to-end latency; among equals the earlier
// delivery stays first, keeping reports deterministic).
func (f *Forensics) noteSlow(d SlowDelivery) {
	s := f.slowest
	if len(s) == cap(s) && (len(s) == 0 || d.E2ENs <= s[len(s)-1].E2ENs) {
		return
	}
	pos := len(s)
	for pos > 0 && d.E2ENs > s[pos-1].E2ENs {
		pos--
	}
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	}
	copy(s[pos+1:], s[pos:])
	s[pos] = d
	f.slowest = s
}

// ensureAttribution lazily registers the attribution metric families on
// first delivery, so runs that never exercise forensics keep byte-
// identical Prometheus snapshots with earlier releases.
func (f *Forensics) ensureAttribution() {
	if f.e2e != nil {
		return
	}
	r := f.k.Metrics
	f.e2e = r.Histogram("forensics_e2e_ns",
		"End-to-end latency from first hop stamp to host delivery (ns).")
	for i := 0; i < NumSpans; i++ {
		f.spanHist[i] = r.HistogramL("forensics_sojourn_ns",
			"Per-layer sojourn between adjacent hop stamps (ns).",
			"span", spanNames[i])
		r.CounterOf("forensics_dominant_total",
			"Deliveries in which this span was the largest latency contributor.",
			"span", spanNames[i], &f.spanDom[i])
	}
}
