package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// forensicsSink builds a sink with forensics at its fixed bounds.
func forensicsSink() (*sim.Sim, *Sink) {
	s := sim.New(1)
	k := New(s, Options{})
	return s, k
}

// TestDecisionRingRotation checks a flow's Decisions keep its newest 64
// decisions, oldest first, while the totals keep exact count.
func TestDecisionRingRotation(t *testing.T) {
	s, k := forensicsSink()
	for i := 0; i < 70; i++ {
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed",
			Flow: testFlow, Seq: uint32(i * 1460), EndSeq: uint32((i + 1) * 1460)})
		s.RunFor(time.Microsecond)
	}
	fe := k.Forensics.FlowState(testFlow)
	if fe == nil {
		t.Fatal("flow untracked")
	}
	if fe.Total != 70 || fe.ByOp[OpFlush] != 70 {
		t.Fatalf("Total=%d ByOp[flush]=%d, want 70/70", fe.Total, fe.ByOp[OpFlush])
	}
	decs := fe.Decisions()
	if len(decs) != 64 {
		t.Fatalf("Decisions returned %d, want 64", len(decs))
	}
	if decs[0].Seq != 6*1460 || decs[63].Seq != 69*1460 {
		t.Fatalf("Decisions kept seqs %d..%d, want %d..%d", decs[0].Seq, decs[63].Seq, 6*1460, 69*1460)
	}
	if got := k.Forensics.OpTotal(OpFlush); got != 70 {
		t.Fatalf("global OpTotal(flush)=%d, want 70", got)
	}
	if got := k.Forensics.CauseCount(OpFlush, "sealed"); got != 70 {
		t.Fatalf("CauseCount(flush,sealed)=%d, want 70", got)
	}
}

// TestDecisionsViewTheRecorder: a flow's Decisions and the retunes are
// views of the flight recorder, so once it rotates they return exactly
// the decisions it still holds, Explain names its capacity for a
// rotated-out seq, and the tallies stay exact.
func TestDecisionsViewTheRecorder(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 16})
	other := testFlow
	other.SrcPort++
	for i := 0; i < 20; i++ {
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow,
			Seq: uint32(i * 1460), EndSeq: uint32((i + 1) * 1460)})
		k.Record(&Record{Layer: LayerNIC, Op: OpPoll, Flow: testFlow, N: 1})
		if i%4 == 0 {
			k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: other})
		}
		if i == 5 || i == 18 {
			k.Record(&Record{Layer: LayerHost, Op: OpRetune, Cause: "raise", N: int64(i), Note: "ofo"})
		}
		s.RunFor(time.Microsecond)
	}
	var flow, retunes []Record
	for _, r := range k.Recorder.Records() {
		switch {
		case r.Op == OpRetune:
			retunes = append(retunes, r)
		case r.Cause != "" && r.Flow == testFlow:
			flow = append(flow, r)
		}
	}
	f := k.Forensics
	fe := f.FlowState(testFlow)
	if got := fe.Decisions(); len(flow) == 0 || !slices.Equal(got, flow) {
		t.Fatalf("Decisions = %d records, want the recorder's %d for the flow", len(got), len(flow))
	}
	if got := f.GlobalDecisions(); len(retunes) != 1 || !slices.Equal(got, retunes) {
		t.Fatalf("GlobalDecisions = %+v, want the recorder's retunes %+v", got, retunes)
	}
	if fe.Total != 20 || fe.ByOp[OpFlush] != 20 || f.OpTotal(OpFlush) != 25 ||
		f.CauseCount(OpFlush, "sealed") != 25 || f.OpTotal(OpRetune) != 2 {
		t.Fatalf("tallies Total=%d ByOp[flush]=%d OpTotal(flush)=%d CauseCount=%d OpTotal(retune)=%d, want 20/20/25/25/2",
			fe.Total, fe.ByOp[OpFlush], f.OpTotal(OpFlush), f.CauseCount(OpFlush, "sealed"), f.OpTotal(OpRetune))
	}
	var buf bytes.Buffer
	if matches, ok := f.Explain(&buf, testFlow, 0); matches != 0 || !ok {
		t.Fatalf("Explain(rotated-out seq) = %d, %v; want 0, ok", matches, ok)
	}
	if !strings.Contains(buf.String(), "no retained decision covers seq 0") ||
		!strings.Contains(buf.String(), "last 16 records") {
		t.Fatalf("Explain should name the recorder's 16-record capacity:\n%s", buf.String())
	}
}

// TestFlowForensicsSize pins a tracked flow's forensic state at 280
// bytes: it holds tallies and attribution, and its decision records stay
// in the flight recorder rather than in a per-flow copy.
func TestFlowForensicsSize(t *testing.T) {
	if n := unsafe.Sizeof(FlowForensics{}); n != 280 {
		t.Fatalf("FlowForensics is %d bytes, want 280", n)
	}
}

// TestFlowCapTruncation checks flows beyond the first 1024 still count
// globally but keep no per-flow state, recorded in TruncatedDecisions.
func TestFlowCapTruncation(t *testing.T) {
	_, k := forensicsSink()
	flow := testFlow
	for i := 0; i < 1024; i++ {
		flow.SrcPort = uint16(i)
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: flow})
	}
	other := testFlow
	other.SrcPort = 1024
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: other})
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: other})
	f := k.Forensics
	if f.FlowState(flow) == nil {
		t.Fatal("the 1024th flow should be tracked")
	}
	if f.FlowState(other) != nil {
		t.Fatal("the 1025th flow should be untracked")
	}
	if f.TruncatedDecisions != 2 {
		t.Fatalf("TruncatedDecisions=%d, want 2", f.TruncatedDecisions)
	}
	if f.OpTotal(OpFlush) != 1026 {
		t.Fatalf("global tally %d, want 1026 (truncation must not lose counts)", f.OpTotal(OpFlush))
	}
}

// TestWatchdogEvictChurn checks the eviction-rate detector fires exactly at
// the threshold of 64 per 1ms window and that a new window resets the
// count.
func TestWatchdogEvictChurn(t *testing.T) {
	s, k := forensicsSink()
	evict := func(n int) {
		for i := 0; i < n; i++ {
			k.Record(&Record{Layer: LayerCore, Op: OpEvict, Cause: "evict", Flow: testFlow})
		}
	}
	evict(63)
	if k.Forensics.AnomalyTotal() != 0 {
		t.Fatal("anomaly before threshold")
	}
	evict(1)
	if got := k.Forensics.AnomalyTotal(); got != 1 {
		t.Fatalf("anomalies=%d after hitting threshold, want 1", got)
	}
	a := k.Forensics.Anomalies()[0]
	if a.Kind != AnomalyEvictChurn || a.Value != 64 || a.Limit != 64 {
		t.Fatalf("anomaly = %+v, want eviction-churn 64/64", a)
	}
	// Next window starts clean: 63 evictions fire nothing.
	s.RunFor(2 * time.Millisecond)
	evict(63)
	if got := k.Forensics.AnomalyTotal(); got != 1 {
		t.Fatalf("anomalies=%d after window reset, want still 1", got)
	}
}

// TestWatchdogPhaseFlap checks the flap detector counts abnormal phase
// transitions only (8 in one window fire it) — the drained/new-data
// breathing of a healthy paced flow is exempt.
func TestWatchdogPhaseFlap(t *testing.T) {
	_, k := forensicsSink()
	phase := func(cause string) {
		k.Record(&Record{Layer: LayerCore, Op: OpPhase, Cause: cause, Flow: testFlow, Note: "a>b"})
	}
	for i := 0; i < 8; i++ {
		phase(CausePhaseDrained)
		phase(CausePhaseNewData)
	}
	if got := k.Forensics.AnomalyTotal(); got != 0 {
		t.Fatalf("benign breathing raised %d anomalies, want 0", got)
	}
	for i := 0; i < 7; i++ {
		phase("hole-filled")
	}
	if got := k.Forensics.AnomalyTotal(); got != 0 {
		t.Fatalf("anomalies=%d after 7 abnormal transitions, want 0", got)
	}
	phase("first-flush")
	if got := k.Forensics.AnomalyTotal(); got != 1 {
		t.Fatalf("anomalies=%d after 8 abnormal transitions, want 1", got)
	}
	if a := k.Forensics.Anomalies()[0]; a.Kind != AnomalyPhaseFlap || !a.HasFlow {
		t.Fatalf("anomaly = %+v, want flow-pinned phase-flap", a)
	}
}

// TestWatchdogOFOInflation checks the queue-occupancy detector fires at
// 256 KiB, once per flow, not on every decision above the limit.
func TestWatchdogOFOInflation(t *testing.T) {
	_, k := forensicsSink()
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, QBytes: 256<<10 - 1})
	if k.Forensics.AnomalyTotal() != 0 {
		t.Fatal("anomaly below limit")
	}
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, QBytes: 300 << 10})
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, QBytes: 400 << 10})
	if got := k.Forensics.AnomalyTotal(); got != 1 {
		t.Fatalf("anomalies=%d, want 1 (once per flow)", got)
	}
	a := k.Forensics.Anomalies()[0]
	if a.Kind != AnomalyOFOInflation || a.Value != 300<<10 || a.Limit != 256<<10 {
		t.Fatalf("anomaly = %+v, want ofo-inflation 300KiB/256KiB", a)
	}
}

// stampedSegment builds a delivered segment with one stamp per hop at the
// given nanosecond offsets (0 = hop missing).
func stampedSegment(flow packet.FiveTuple, seq uint32, at [packet.NumHops]int64) *packet.Segment {
	seg := &packet.Segment{Flow: flow, Seq: seq, Bytes: 1460, Pkts: 1}
	for h := 0; h < packet.NumHops; h++ {
		if at[h] != 0 {
			packet.Stamp(&seg.Stamps, packet.Hop(h), sim.Time(at[h]))
		}
	}
	return seg
}

// TestAttributionSpans checks per-span deltas, the dominant-span account,
// and that a missing interior stamp folds forward into the next span.
func TestAttributionSpans(t *testing.T) {
	_, k := forensicsSink()
	f := k.Forensics

	// Fully stamped: tx 10, fabric 20, coalesce 30, softirq 5, hold 100.
	k.ObserveDelivery(stampedSegment(testFlow, 0, [packet.NumHops]int64{100, 110, 130, 160, 165, 265}))
	// napi-poll stamp missing: its time folds into the coalesce->gro span.
	k.ObserveDelivery(stampedSegment(testFlow, 1460, [packet.NumHops]int64{100, 110, 130, 0, 165, 265}))

	if f.Delivered() != 2 {
		t.Fatalf("delivered=%d, want 2", f.Delivered())
	}
	if got := f.e2e.Sum(); got != 330 {
		t.Fatalf("e2e sum=%d, want 330", got)
	}
	wantSpanSum := map[Span]int64{SpanTX: 20, SpanFabric: 40, SpanCoalesce: 30, SpanSoftirq: 40, SpanHold: 200}
	var total int64
	for sp, want := range wantSpanSum {
		if got := f.spanHist[sp].Sum(); got != want {
			t.Errorf("span %v sum=%d, want %d", sp, got, want)
		}
		total += f.spanHist[sp].Sum()
	}
	if total != f.e2e.Sum() {
		t.Errorf("spans sum to %d, e2e %d — telescoping broken", total, f.e2e.Sum())
	}
	// Hold (100ns) dominates both deliveries.
	if got := f.spanDom[SpanHold]; got != 2 {
		t.Errorf("hold dominant in %d deliveries, want 2", got)
	}
}

// TestAttributionPartialStamps checks the degenerate stampings: delivery
// stamp missing (ignored) and delivery-only (nothing upstream to attribute).
func TestAttributionPartialStamps(t *testing.T) {
	_, k := forensicsSink()
	k.ObserveDelivery(stampedSegment(testFlow, 0, [packet.NumHops]int64{100, 110, 130, 160, 165, 0}))
	k.ObserveDelivery(stampedSegment(testFlow, 0, [packet.NumHops]int64{0, 0, 0, 0, 0, 265}))
	if got := k.Forensics.Delivered(); got != 0 {
		t.Fatalf("attributed %d un-attributable deliveries, want 0", got)
	}
}

// TestSlowestLeaderboard checks the worst-deliveries board is bounded at
// eight, sorted slowest first, and ties keep the earlier delivery.
func TestSlowestLeaderboard(t *testing.T) {
	_, k := forensicsSink()
	for i, hold := range []int64{30, 80, 10, 80, 50, 20, 60, 5, 70, 40} {
		k.ObserveDelivery(stampedSegment(testFlow, uint32(i),
			[packet.NumHops]int64{0, 0, 0, 0, 100, 100 + hold}))
	}
	slow := k.Forensics.Slowest()
	if len(slow) != 8 {
		t.Fatalf("leaderboard size %d, want 8", len(slow))
	}
	if slow[0].E2ENs != 80 || slow[1].E2ENs != 80 || slow[2].E2ENs != 70 || slow[7].E2ENs != 20 {
		t.Fatalf("leaderboard e2e %d,%d,%d..%d want 80,80,70..20",
			slow[0].E2ENs, slow[1].E2ENs, slow[2].E2ENs, slow[7].E2ENs)
	}
	if slow[0].Seq != 1 || slow[1].Seq != 3 {
		t.Fatalf("tie order: seqs %d,%d want 1,3 (earlier delivery first)", slow[0].Seq, slow[1].Seq)
	}
}

// TestExplain checks the why-query: seq-covering decisions are matched and
// marked, flow-scoped context rides along, untracked flows report ok=false.
func TestExplain(t *testing.T) {
	s, k := forensicsSink()
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow,
		Seq: 0, EndSeq: 2920, SeqNext: 2920, N: 2})
	s.RunFor(time.Microsecond)
	k.Record(&Record{Layer: LayerCore, Op: OpPhase, Cause: CausePhaseDrained, Flow: testFlow,
		Note: "active-merge>post-merge"})
	s.RunFor(time.Microsecond)
	k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "ofo_timeout", Flow: testFlow,
		Seq: 4380, EndSeq: 5840, Hole: true, HoleSeq: 2920, N: 1})

	var buf bytes.Buffer
	matches, ok := k.Forensics.Explain(&buf, testFlow, 1460)
	if !ok || matches != 1 {
		t.Fatalf("Explain(seq=1460) = %d, %v; want 1 match, ok", matches, ok)
	}
	out := buf.String()
	if !strings.Contains(out, "> ") || !strings.Contains(out, "cause=sealed") {
		t.Errorf("matched flush not marked in output:\n%s", out)
	}
	if !strings.Contains(out, "phase") {
		t.Errorf("flow-scoped phase context missing:\n%s", out)
	}
	if strings.Contains(out, "ofo_timeout") {
		t.Errorf("unrelated flush for another seq leaked into output:\n%s", out)
	}

	buf.Reset()
	if matches, ok = k.Forensics.Explain(&buf, testFlow, 99999); matches != 0 || !ok {
		t.Fatalf("Explain(uncovered seq) = %d, %v; want 0, ok", matches, ok)
	}
	if !strings.Contains(buf.String(), "no retained decision") {
		t.Errorf("uncovered seq should say so:\n%s", buf.String())
	}

	other := testFlow
	other.SrcPort++
	if _, ok = k.Forensics.Explain(&buf, other, 0); ok {
		t.Fatal("untracked flow should report ok=false")
	}
}

// TestHopStampSentinel checks the zero-time nudge: a stamp at the
// simulation epoch records 1ns instead of colliding with the "not
// stamped" sentinel.
func TestHopStampSentinel(t *testing.T) {
	var st [packet.NumHops]sim.Time
	packet.Stamp(&st, packet.HopGROBuffer, 0)
	if st[packet.HopGROBuffer] != 1 {
		t.Fatalf("stamp at t=0 recorded %d, want the 1ns nudge", st[packet.HopGROBuffer])
	}
	packet.Stamp(&st, packet.HopDeliver, 500)
	if st[packet.HopDeliver] != 500 {
		t.Fatalf("stamp at t=500 recorded %d, want 500", st[packet.HopDeliver])
	}
}

// TestSegPoolStampReset checks a recycled segment does not leak the
// previous life's hop stamps — the forensic equivalent of a use-after-free.
func TestSegPoolStampReset(t *testing.T) {
	pl := &packet.SegPool{}
	s := pl.Get()
	packet.Stamp(&s.Stamps, packet.HopNICRx, 123)
	pl.Put(s)
	s2 := pl.Get()
	for h := 0; h < packet.NumHops; h++ {
		if s2.Stamps[h] != 0 {
			t.Fatalf("recycled segment kept stamp %v=%d", packet.Hop(h), s2.Stamps[h])
		}
	}
	// FromPacket must carry the packet's stamps onto the pooled segment.
	p := &packet.Packet{Flow: testFlow, Seq: 1, PayloadLen: 1460}
	packet.Stamp(&p.Stamps, packet.HopTCPSend, 7)
	s3 := pl.FromPacket(p)
	if s3.Stamps[packet.HopTCPSend] != 7 {
		t.Fatalf("FromPacket dropped stamps: %v", s3.Stamps)
	}
}

// TestForensicsZeroAlloc pins the delivery-side instrumentation cost
// contract: with no sink the hooks are one nil check, and with a sink
// attached the steady state (flows and metric families already
// registered) attributes deliveries without allocating. The recording
// side is pinned by TestRecordZeroAlloc and TestDisabledPathZeroAlloc.
func TestForensicsZeroAlloc(t *testing.T) {
	var nilSink *Sink
	seg := stampedSegment(testFlow, 0, [packet.NumHops]int64{100, 110, 130, 160, 165, 265})

	if n := testing.AllocsPerRun(200, func() { nilSink.ObserveDelivery(seg) }); n != 0 {
		t.Errorf("nil-sink ObserveDelivery: %v allocs/op, want 0", n)
	}
	var st [packet.NumHops]sim.Time
	if n := testing.AllocsPerRun(200, func() { packet.Stamp(&st, packet.HopNICRx, 42) }); n != 0 {
		t.Errorf("packet.Stamp: %v allocs/op, want 0", n)
	}

	_, k := forensicsSink()
	k.ObserveDelivery(seg) // warm: attribution families, leaderboard
	if n := testing.AllocsPerRun(200, func() { k.ObserveDelivery(seg) }); n != 0 {
		t.Errorf("steady-state ObserveDelivery: %v allocs/op, want 0", n)
	}
}
