package telemetry

import (
	"fmt"
	"io"
	"slices"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
)

// The steady-state phase-transition causes: a healthy paced flow breathes
// between active-merge (new data in flight) and post-merge (queue
// drained). Emitters use these so the flap watchdog can tell breathing
// from genuine flapping.
const (
	CausePhaseDrained = "drained"
	CausePhaseNewData = "new-data"
)

// Forensics bounds and watchdog limits.
const (
	// flowCap bounds how many flows get forensic state and per-flow
	// attribution; decisions beyond it still count in the global tallies
	// and TruncatedDecisions.
	flowCap = 1024
	// flowDecisionCap bounds FlowForensics.Decisions, the doctor's
	// excerpts; Explain searches every record the flight recorder holds.
	flowDecisionCap = 64
	// retuneCap bounds GlobalDecisions likewise.
	retuneCap = 128
	// topK bounds the slowest-deliveries leaderboard.
	topK = 8
	// watchdogWindow is the watchdog's tumbling window in virtual time.
	watchdogWindow = time.Millisecond
	// evictChurn fires an anomaly when evictions in one window reach this
	// count.
	evictChurn = 64
	// phaseFlaps fires an anomaly when one flow's phase transitions in one
	// window reach this count.
	phaseFlaps = 8
	// inflationBytes fires a once-per-flow anomaly when a decision
	// observes an ofo queue at or above this occupancy.
	inflationBytes = 256 << 10
)

// Anomaly kinds reported by the streaming watchdog.
const (
	AnomalyEvictChurn   = "eviction-churn"
	AnomalyPhaseFlap    = "phase-flap"
	AnomalyOFOInflation = "ofo-inflation"
)

var anomalyKinds = [...]string{AnomalyEvictChurn, AnomalyPhaseFlap, AnomalyOFOInflation}

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

// FlowForensics is one flow's forensic state: exact decision tallies and
// per-flow latency attribution. Its decision records stay in the flight
// recorder, the one store of records; Decisions reads them from there.
type FlowForensics struct {
	Flow  packet.FiveTuple
	Index int // registration order, stable across same-seed runs

	rec *Recorder
	// Total counts all decisions ever recorded (the flight recorder may
	// hold fewer); ByOp splits the total per op.
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

// Decisions returns the flow's newest decisions the flight recorder still
// holds, at most flowDecisionCap of them, oldest first.
func (fe *FlowForensics) Decisions() []Record {
	if fe == nil {
		return nil
	}
	return fe.rec.last(flowDecisionCap, func(r *Record) bool {
		return r.Cause != "" && r.Op != OpRetune && r.Flow == fe.Flow
	})
}

// Forensics is the per-run forensic state hanging off a Sink: latency
// attribution, per-flow decision tallies, and the streaming anomaly
// watchdog. All bounds are fixed up front so steady-state recording does
// not allocate (new flows are the only growth, and they are capped).
type Forensics struct {
	k *Sink

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
	// TruncatedDecisions counts decisions from flows beyond flowCap,
	// which were tallied globally but kept no per-flow state.
	TruncatedDecisions int64

	// Watchdog. akTotal counts anomalies per anomalyKinds entry.
	anomalies  []Anomaly
	akTotal    [len(anomalyKinds)]int64
	evictWinAt sim.Time
	evictInWin int64
}

func newForensics(k *Sink) *Forensics {
	return &Forensics{
		k:       k,
		flows:   make(map[packet.FiveTuple]*FlowForensics),
		slowest: make([]SlowDelivery, 0, topK),
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

// GlobalDecisions returns the host-scoped decisions (adapt retunes) the
// flight recorder still holds, at most retuneCap of them, oldest first.
// OpTotal(OpRetune) counts them all.
func (f *Forensics) GlobalDecisions() []Record {
	if f == nil {
		return nil
	}
	return f.k.Recorder.last(retuneCap, func(r *Record) bool { return r.Op == OpRetune && r.Cause != "" })
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

// decide tallies one decision (a record with a cause) and runs the
// watchdog on it; the record itself stays in the flight recorder.
func (f *Forensics) decide(d *Record) {
	op := d.Op
	if f.opTotal[op] == 0 {
		// Registered on the op's first decision: the family's snapshot
		// position, and its absence from decision-free runs, follow use.
		f.k.Metrics.CounterOf("forensics_decisions_total",
			"Datapath decisions recorded in the flight recorder.",
			"op", opNames[op], &f.opTotal[op])
	}
	f.opTotal[op]++
	if i := slices.IndexFunc(f.causes[op], func(c CauseCount) bool { return c.Cause == d.Cause }); i >= 0 {
		f.causes[op][i].Count++
	} else {
		f.causes[op] = append(f.causes[op], CauseCount{Cause: d.Cause, Count: 1})
	}

	if op == OpRetune {
		// Host-scoped: no flow, no per-flow tallies, no watchdog windows.
		return
	}

	fe := f.flowFor(d.Flow)
	if fe == nil {
		f.TruncatedDecisions++
	} else {
		fe.Total++
		fe.ByOp[op]++
	}

	f.watch(d, fe)
}

// watch runs the streaming watchdog detectors on one decision.
func (f *Forensics) watch(d *Record, fe *FlowForensics) {
	switch d.Op {
	case OpEvict:
		if d.At.Sub(f.evictWinAt) >= watchdogWindow {
			f.evictWinAt = d.At
			f.evictInWin = 0
		}
		f.evictInWin++
		if f.evictInWin == evictChurn {
			f.anomaly(Anomaly{At: d.At, Kind: AnomalyEvictChurn,
				Value: f.evictInWin, Limit: evictChurn, Note: "evictions/window"})
		}
	case OpPhase:
		if fe == nil {
			break
		}
		// The active-merge <-> post-merge breathing of a healthy paced flow
		// (queue drains, new data arrives) is steady-state operation, not
		// flapping — only abnormal transitions count toward the detector.
		if d.Cause == CausePhaseDrained || d.Cause == CausePhaseNewData {
			break
		}
		if d.At.Sub(fe.phaseWinStart) >= watchdogWindow {
			fe.phaseWinStart = d.At
			fe.phaseInWin = 0
		}
		fe.phaseInWin++
		if fe.phaseInWin == phaseFlaps {
			f.anomaly(Anomaly{At: d.At, Kind: AnomalyPhaseFlap, Flow: d.Flow, HasFlow: true,
				Value: fe.phaseInWin, Limit: phaseFlaps, Note: "transitions/window"})
		}
	}
	if d.QBytes >= inflationBytes && fe != nil && !fe.inflated {
		fe.inflated = true
		f.anomaly(Anomaly{At: d.At, Kind: AnomalyOFOInflation, Flow: d.Flow, HasFlow: true,
			Value: d.QBytes, Limit: inflationBytes, Note: "ofo-queue bytes"})
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
	if len(f.order) >= flowCap {
		return nil
	}
	fe := &FlowForensics{Flow: ft, Index: len(f.order), rec: f.k.Recorder}
	f.flows[ft] = fe
	f.order = append(f.order, fe)
	f.lastFlow, f.lastFE = ft, fe
	return fe
}

// covers reports whether decision d is about byte seq: either its
// [Seq,EndSeq) range contains it, or it is a point decision at it.
func (d *Record) covers(seq uint32) bool {
	if d.Seq == seq {
		return true
	}
	return packet.SeqLEQ(d.Seq, seq) && packet.SeqLess(seq, d.EndSeq)
}

// Explain answers a "why" query from the flight recorder: it prints every
// decision about byte seq of flow ft among the flow's Decisions — plus the
// flow-scoped decisions (phase transitions, evictions, timeouts) that set
// their context — and returns how many seq-specific decisions matched. A
// return of 0 with ok=true means the flow is tracked but no retained
// decision covers seq (rotated out or never recorded), which it says;
// ok=false means the flow is untracked.
func (f *Forensics) Explain(w io.Writer, ft packet.FiveTuple, seq uint32) (matches int, ok bool) {
	fe := f.FlowState(ft)
	if fe == nil {
		return 0, false
	}
	rec := f.k.Recorder
	fmt.Fprintf(w, "flow %v seq %d — %d decisions recorded (searching all %d records the flight recorder holds):\n",
		ft, seq, fe.Total, rec.Len())
	// Host-scoped retunes interleave as context: a timeout change often
	// explains why a later flush fired (or stopped firing).
	decs := rec.last(rec.Len(), func(r *Record) bool { return r.Cause != "" && (r.Op == OpRetune || r.Flow == ft) })
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
		fmt.Fprintf(w, "  no retained decision covers seq %d — the flight recorder keeps the last %d records of all flows (-events sets it)\n",
			seq, len(f.k.Recorder.records.buf))
	}
	return matches, true
}
