package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
)

// Op classifies a datapath decision recorded in a flow's audit ring.
type Op uint8

// Decision operations, in rough datapath order.
const (
	// OpFlush: a segment left the receive-offload layer. Cause says which
	// Table-2 condition closed it ("sealed", "full", "boundary",
	// "inseq_timeout", "ofo_timeout", "evict", "final", ...).
	OpFlush Op = iota
	// OpPhase: a Juggler flow phase transition. Note carries "from>to".
	OpPhase
	// OpEvict: a flow was evicted from the gro_table.
	OpEvict
	// OpTimeout: an inseq/ofo timeout fired (the firing itself; any
	// resulting flushes are separate OpFlush records).
	OpTimeout
	// OpPass: a packet bypassed buffering (retransmission, duplicate,
	// pass-through control packet).
	OpPass
	// OpRetune: the adapt controller changed a tuning knob. Retune
	// decisions are host-scoped, not flow-scoped: they land in the global
	// decision ring rather than a per-flow audit ring.
	OpRetune
	// NumOps sizes per-op arrays.
	NumOps = int(OpRetune) + 1
)

var opNames = [NumOps]string{"flush", "phase", "evict", "timeout", "pass", "retune"}

// String names the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Decision is one datapath decision with the evidence that produced it:
// which condition fired and the flow's seq/hole state at that instant.
// Cause and Note must be constant (or pre-existing) strings so recording
// never allocates.
type Decision struct {
	At    sim.Time
	Layer Layer
	Op    Op
	// Cause is the condition that fired, a constant string.
	Cause string
	Flow  packet.FiveTuple
	// Seq/EndSeq bound the bytes the decision acted on (EndSeq==Seq for
	// decisions about a point, e.g. phase transitions).
	Seq, EndSeq uint32
	// SeqNext is the flow's in-order flush floor at the instant of the
	// decision (Juggler's seq_next; 0 when unknown).
	SeqNext uint32
	// Hole reports whether the flow's reassembly had a gap at that
	// instant; HoleSeq is the first missing byte when it did.
	Hole    bool
	HoleSeq uint32
	// QPkts/QBytes are the flow's out-of-order queue occupancy after the
	// decision took effect.
	QPkts, QBytes int64
	// N is an op-specific magnitude (packets flushed, bytes drained, ...).
	N int64
	// Note is optional constant detail (phase transitions use "from>to").
	Note string
}

// The steady-state phase-transition causes: a healthy paced flow breathes
// between active-merge (new data in flight) and post-merge (queue
// drained). Emitters use these so the flap watchdog can tell breathing
// from genuine flapping.
const (
	CausePhaseDrained = "drained"
	CausePhaseNewData = "new-data"
)

// ForensicsOptions tunes the forensics subsystem; zero values take the
// defaults documented per field.
type ForensicsOptions struct {
	// FlowCap bounds how many flows get audit rings and per-flow
	// attribution (default 1024; decisions beyond it still count in the
	// global tallies and TruncatedDecisions).
	FlowCap int
	// RingCap is the per-flow audit-ring depth (default 64 decisions).
	RingCap int
	// TopK bounds the slowest-deliveries leaderboard (default 8).
	TopK int
	// Window is the watchdog's tumbling window in virtual time
	// (default 1ms).
	Window time.Duration
	// EvictChurn fires an anomaly when evictions in one window reach this
	// count (default 64; <0 disables).
	EvictChurn int64
	// PhaseFlaps fires an anomaly when one flow's phase transitions in
	// one window reach this count (default 8; <0 disables).
	PhaseFlaps int64
	// InflationBytes fires a once-per-flow anomaly when a decision
	// observes an ofo queue at or above this occupancy (default 256KiB;
	// <0 disables).
	InflationBytes int64
	// SojournSLO sets a per-span latency SLO; a delivery whose span
	// sojourn exceeds it records an anomaly. Zero disables a span.
	SojournSLO [NumSpans]time.Duration
}

// withDefaults fills zero fields.
func (o ForensicsOptions) withDefaults() ForensicsOptions {
	if o.FlowCap == 0 {
		o.FlowCap = 1024
	}
	if o.RingCap == 0 {
		o.RingCap = 64
	}
	if o.TopK == 0 {
		o.TopK = 8
	}
	if o.Window == 0 {
		o.Window = time.Millisecond
	}
	if o.EvictChurn == 0 {
		o.EvictChurn = 64
	}
	if o.PhaseFlaps == 0 {
		o.PhaseFlaps = 8
	}
	if o.InflationBytes == 0 {
		o.InflationBytes = 256 << 10
	}
	return o
}

// Anomaly kinds reported by the streaming watchdog.
const (
	AnomalyEvictChurn   = "eviction-churn"
	AnomalyPhaseFlap    = "phase-flap"
	AnomalyOFOInflation = "ofo-inflation"
	AnomalySojournSLO   = "sojourn-slo"
)

var anomalyKinds = [...]string{AnomalyEvictChurn, AnomalyPhaseFlap, AnomalyOFOInflation, AnomalySojournSLO}

// Anomaly is one watchdog finding: a value crossed its limit at a virtual
// instant, optionally pinned to a flow.
type Anomaly struct {
	At      sim.Time
	Kind    string
	Flow    packet.FiveTuple
	HasFlow bool
	Value   int64
	Limit   int64
	Note    string
}

// anomalyCap bounds the retained anomaly list; the per-kind counters keep
// exact totals past it.
const anomalyCap = 256

// FlowForensics is one flow's forensic state: its decision audit ring plus
// per-flow latency attribution. Exported accessors return copies so the
// doctor and tests cannot corrupt the ring.
type FlowForensics struct {
	Flow  packet.FiveTuple
	Index int // registration order, stable across same-seed runs

	ring []Decision
	next int
	// Total counts all decisions ever recorded (the ring keeps the last
	// len(ring) of them); ByOp splits the total per op.
	Total int64
	ByOp  [NumOps]int64

	// Per-flow latency attribution (sums in ns).
	Delivered int64
	E2ENs     int64
	SpanNs    [NumSpans]int64
	DomSpan   [NumSpans]int64

	// Watchdog state.
	phaseWinStart sim.Time
	phaseInWin    int64
	inflated      bool
}

// Decisions returns the ring's retained decisions, oldest first.
func (fe *FlowForensics) Decisions() []Decision {
	if fe == nil || fe.Total == 0 {
		return nil
	}
	out := make([]Decision, 0, len(fe.ring))
	n := len(fe.ring)
	if fe.Total < int64(n) {
		return append(out, fe.ring[:fe.Total]...)
	}
	out = append(out, fe.ring[fe.next:]...)
	return append(out, fe.ring[:fe.next]...)
}

// Forensics is the per-run forensic state hanging off a Sink: latency
// attribution, per-flow decision audit rings, and the streaming anomaly
// watchdog. All bounds are fixed up front so steady-state recording does
// not allocate (new flows are the only growth, and they are capped).
type Forensics struct {
	k   *Sink
	opt ForensicsOptions

	// Attribution (attribution.go). Metric families are registered lazily
	// on first use so forensics-free runs keep prior snapshot bytes.
	e2e      *stats.QuantileSketch
	spanHist [NumSpans]*stats.QuantileSketch
	spanDom  [NumSpans]int64 // deliveries each span dominated
	slowest  []SlowDelivery

	// Decision provenance.
	flows map[packet.FiveTuple]*FlowForensics
	order []*FlowForensics
	// lastFlow/lastFE memoize the most recent flowFor hit: decisions
	// cluster by flow (several per packet, a batch per poll), so the
	// hot path usually skips the map probe. Entries are never removed
	// from flows, so the memo cannot go stale.
	lastFlow packet.FiveTuple
	lastFE   *FlowForensics
	opTotal  [NumOps]int64
	// causes tallies per-op decision causes. A short linear-scanned
	// slice, not a map: causes are constant strings (a handful per op),
	// so the scan usually resolves on the pointer-equality fast path of
	// string comparison instead of hashing the key on every decision.
	causes [NumOps][]CauseCount
	// TruncatedDecisions counts decisions from flows beyond FlowCap,
	// which were tallied globally but kept no audit ring.
	TruncatedDecisions int64

	// Global (host-scoped) decision ring: decisions that are not about
	// any one flow — today the adapt controller's retunes. Bounded like
	// the per-flow rings; GlobalTotal keeps the exact count past it.
	global      []Decision
	globalNext  int
	GlobalTotal int64

	// Watchdog. akTotal counts anomalies per anomalyKinds entry.
	anomalies  []Anomaly
	akTotal    [len(anomalyKinds)]int64
	evictWinAt sim.Time
	evictInWin int64
}

// globalRingCap bounds the host-scoped decision ring. Retunes are rare
// by construction (hysteresis + bounded steps), so this keeps hours of
// virtual time.
const globalRingCap = 128

func newForensics(k *Sink, o ForensicsOptions) *Forensics {
	o = o.withDefaults()
	return &Forensics{
		k:       k,
		opt:     o,
		flows:   make(map[packet.FiveTuple]*FlowForensics),
		slowest: make([]SlowDelivery, 0, o.TopK),
	}
}

// Delivered returns how many segment deliveries were attributed.
func (f *Forensics) Delivered() int64 {
	if f == nil {
		return 0
	}
	return f.e2e.Count()
}

// Flows returns the tracked flows in first-seen order.
func (f *Forensics) Flows() []*FlowForensics {
	if f == nil {
		return nil
	}
	return f.order
}

// FlowState returns the forensic state of one flow (nil when untracked).
func (f *Forensics) FlowState(ft packet.FiveTuple) *FlowForensics {
	if f == nil {
		return nil
	}
	return f.flows[ft]
}

// GlobalDecisions returns the retained host-scoped decisions (adapt
// retunes), oldest first. GlobalTotal may be larger when the ring
// rotated.
func (f *Forensics) GlobalDecisions() []Decision {
	if f == nil || f.GlobalTotal == 0 {
		return nil
	}
	n := len(f.global)
	out := make([]Decision, 0, n)
	if f.GlobalTotal < int64(n) {
		return append(out, f.global[:f.GlobalTotal]...)
	}
	out = append(out, f.global[f.globalNext:]...)
	return append(out, f.global[:f.globalNext]...)
}

// Anomalies returns the retained watchdog findings (AnomalyTotal may be
// larger when the retention cap clipped).
func (f *Forensics) Anomalies() []Anomaly {
	if f == nil {
		return nil
	}
	return f.anomalies
}

// AnomalyTotal returns the exact number of anomalies observed.
func (f *Forensics) AnomalyTotal() int64 {
	if f == nil {
		return 0
	}
	var n int64
	for _, c := range f.akTotal {
		n += c
	}
	return n
}

// Slowest returns the worst-deliveries leaderboard, slowest first.
func (f *Forensics) Slowest() []SlowDelivery {
	if f == nil {
		return nil
	}
	return f.slowest
}

// OpTotal returns how many decisions of op were recorded.
func (f *Forensics) OpTotal(op Op) int64 {
	if f == nil {
		return 0
	}
	return f.opTotal[op]
}

// CauseCount returns how many decisions of op fired with cause.
func (f *Forensics) CauseCount(op Op, cause string) int64 {
	if f == nil {
		return 0
	}
	for i := range f.causes[op] {
		if f.causes[op][i].Cause == cause {
			return f.causes[op][i].Count
		}
	}
	return 0
}

// Decide records one datapath decision, stamping the current virtual time
// into *d; safe on nil. It takes a pointer for the same reason decide
// does: Decision is ~100 bytes and the hot path records several per
// flush, so every by-value hop is a duffcopy the caller pays.
func (k *Sink) Decide(d *Decision) {
	if k == nil {
		return
	}
	d.At = k.sim.Now()
	k.Forensics.decide(d)
}

// decide records one decision. It takes a pointer — a Decision is ~100
// bytes, and passing it by value through decide/watch would duffcopy it
// twice more per record on top of the one required ring write.
func (f *Forensics) decide(d *Decision) {
	if f == nil {
		return
	}
	op := d.Op
	if int(op) >= NumOps {
		op = OpPass
	}
	if f.opTotal[op] == 0 {
		// Registered on the op's first decision: the family's snapshot
		// position, and its absence from decision-free runs, follow use.
		f.k.Metrics.CounterOf("forensics_decisions_total",
			"Datapath decisions recorded in the forensics audit rings.",
			"op", opNames[op], &f.opTotal[op])
	}
	f.opTotal[op]++
	if d.Cause != "" {
		tallied := false
		for i := range f.causes[op] {
			if f.causes[op][i].Cause == d.Cause {
				f.causes[op][i].Count++
				tallied = true
				break
			}
		}
		if !tallied {
			f.causes[op] = append(f.causes[op], CauseCount{Cause: d.Cause, Count: 1})
		}
	}

	if op == OpRetune {
		// Host-scoped: no flow, no per-flow ring, no watchdog windows.
		if f.global == nil {
			f.global = make([]Decision, globalRingCap)
		}
		f.global[f.globalNext] = *d
		f.globalNext++
		if f.globalNext == len(f.global) {
			f.globalNext = 0
		}
		f.GlobalTotal++
		return
	}

	fe := f.flowFor(d.Flow)
	if fe == nil {
		f.TruncatedDecisions++
	} else {
		fe.ring[fe.next] = *d
		fe.next++
		if fe.next == len(fe.ring) {
			fe.next = 0
		}
		fe.Total++
		fe.ByOp[op]++
	}

	f.watch(d, fe)
}

// watch runs the streaming watchdog detectors on one decision.
func (f *Forensics) watch(d *Decision, fe *FlowForensics) {
	win := f.opt.Window
	switch d.Op {
	case OpEvict:
		if f.opt.EvictChurn < 0 {
			break
		}
		if d.At.Sub(f.evictWinAt) >= win {
			f.evictWinAt = d.At
			f.evictInWin = 0
		}
		f.evictInWin++
		if f.evictInWin == f.opt.EvictChurn {
			f.anomaly(Anomaly{At: d.At, Kind: AnomalyEvictChurn,
				Value: f.evictInWin, Limit: f.opt.EvictChurn, Note: "evictions/window"})
		}
	case OpPhase:
		if f.opt.PhaseFlaps < 0 || fe == nil {
			break
		}
		// The active-merge <-> post-merge breathing of a healthy paced flow
		// (queue drains, new data arrives) is steady-state operation, not
		// flapping — only abnormal transitions count toward the detector.
		if d.Cause == CausePhaseDrained || d.Cause == CausePhaseNewData {
			break
		}
		if d.At.Sub(fe.phaseWinStart) >= win {
			fe.phaseWinStart = d.At
			fe.phaseInWin = 0
		}
		fe.phaseInWin++
		if fe.phaseInWin == f.opt.PhaseFlaps {
			f.anomaly(Anomaly{At: d.At, Kind: AnomalyPhaseFlap, Flow: d.Flow, HasFlow: true,
				Value: fe.phaseInWin, Limit: f.opt.PhaseFlaps, Note: "transitions/window"})
		}
	}
	if f.opt.InflationBytes > 0 && d.QBytes >= f.opt.InflationBytes &&
		fe != nil && !fe.inflated {
		fe.inflated = true
		f.anomaly(Anomaly{At: d.At, Kind: AnomalyOFOInflation, Flow: d.Flow, HasFlow: true,
			Value: d.QBytes, Limit: f.opt.InflationBytes, Note: "ofo-queue bytes"})
	}
}

// anomaly records one watchdog finding: exact per-kind count, bounded
// retained list. a.Kind is one of anomalyKinds.
func (f *Forensics) anomaly(a Anomaly) {
	i := slices.Index(anomalyKinds[:], a.Kind)
	if f.akTotal[i] == 0 {
		f.k.Metrics.CounterOf("forensics_anomalies_total",
			"Watchdog anomalies detected online in virtual time.", "kind", a.Kind, &f.akTotal[i])
	}
	f.akTotal[i]++
	if len(f.anomalies) < anomalyCap {
		f.anomalies = append(f.anomalies, a)
	}
}

// flowFor returns (creating if under the cap) the flow's forensic state.
func (f *Forensics) flowFor(ft packet.FiveTuple) *FlowForensics {
	if f.lastFE != nil && f.lastFlow == ft {
		return f.lastFE
	}
	if fe, ok := f.flows[ft]; ok {
		f.lastFlow, f.lastFE = ft, fe
		return fe
	}
	if len(f.order) >= f.opt.FlowCap {
		return nil
	}
	fe := &FlowForensics{Flow: ft, Index: len(f.order),
		ring: make([]Decision, f.opt.RingCap)}
	f.flows[ft] = fe
	f.order = append(f.order, fe)
	f.lastFlow, f.lastFE = ft, fe
	return fe
}

// covers reports whether decision d is about byte seq: either its
// [Seq,EndSeq) range contains it, or it is a point decision at it.
func (d *Decision) covers(seq uint32) bool {
	if d.Seq == seq {
		return true
	}
	return packet.SeqLEQ(d.Seq, seq) && packet.SeqLess(seq, d.EndSeq)
}

// Explain answers a "why" query from the audit ring: it prints every
// retained decision about byte seq of flow ft — plus the flow-scoped
// decisions (phase transitions, evictions, timeouts) that set their
// context — and returns how many seq-specific decisions matched. A return
// of 0 with ok=true means the flow is tracked but the ring holds no
// decision covering seq (rotated out or never recorded); ok=false means
// the flow is untracked.
func (f *Forensics) Explain(w io.Writer, ft packet.FiveTuple, seq uint32) (matches int, ok bool) {
	fe := f.FlowState(ft)
	if fe == nil {
		return 0, false
	}
	fmt.Fprintf(w, "flow %v seq %d — %d decisions recorded (ring keeps last %d):\n",
		ft, seq, fe.Total, len(fe.ring))
	// Host-scoped retunes interleave as context: a timeout change often
	// explains why a later flush fired (or stopped firing).
	decs := fe.Decisions()
	if g := f.GlobalDecisions(); len(g) > 0 {
		decs = append(decs, g...)
		sort.SliceStable(decs, func(i, j int) bool { return decs[i].At < decs[j].At })
	}
	for _, d := range decs {
		about := d.Op != OpRetune && d.covers(seq)
		flowScoped := d.Op == OpPhase || d.Op == OpEvict || d.Op == OpTimeout || d.Op == OpRetune
		if !about && !flowScoped {
			continue
		}
		if about {
			matches++
			fmt.Fprintf(w, "  > ")
		} else {
			fmt.Fprintf(w, "    ")
		}
		fmt.Fprintf(w, "%-12v %s", d.At.Sub(0), d.Op)
		if d.Cause != "" {
			fmt.Fprintf(w, " cause=%s", d.Cause)
		}
		if d.EndSeq != d.Seq {
			fmt.Fprintf(w, " seq=[%d,%d)", d.Seq, d.EndSeq)
		} else if d.Seq != 0 || d.Op == OpFlush {
			fmt.Fprintf(w, " seq=%d", d.Seq)
		}
		if d.SeqNext != 0 {
			fmt.Fprintf(w, " seq_next=%d", d.SeqNext)
		}
		if d.Hole {
			fmt.Fprintf(w, " hole@%d", d.HoleSeq)
		}
		if d.QPkts != 0 || d.QBytes != 0 {
			fmt.Fprintf(w, " queue=%dp/%dB", d.QPkts, d.QBytes)
		}
		if d.N != 0 {
			fmt.Fprintf(w, " n=%d", d.N)
		}
		if d.Note != "" {
			fmt.Fprintf(w, " (%s)", d.Note)
		}
		fmt.Fprintln(w)
	}
	if matches == 0 {
		fmt.Fprintf(w, "  no retained decision covers seq %d\n", seq)
	}
	return matches, true
}
