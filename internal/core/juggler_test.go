package core

import (
	"testing"
	"testing/quick"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// harness wires a Juggler to a segment recorder on a fresh simulation.
type harness struct {
	s    *sim.Sim
	j    *Juggler
	segs []*packet.Segment
}

func newHarness(cfg Config) *harness {
	h := &harness{s: sim.New(1)}
	h.j = New(h.s, cfg, func(seg *packet.Segment) { h.segs = append(h.segs, seg) })
	return h
}

// recv feeds a packet and lets the same-instant events settle.
func (h *harness) recv(p *packet.Packet) {
	h.j.Receive(p)
}

// run advances simulation time by d (firing timers).
func (h *harness) run(d time.Duration) { h.s.RunFor(d) }

// delivered returns the flat list of delivered sequence ranges.
func (h *harness) deliveredSeqs() []uint32 {
	var out []uint32
	for _, s := range h.segs {
		out = append(out, s.Seq)
	}
	return out
}

func (h *harness) entry(ft packet.FiveTuple) *flowEntry { return h.j.table.get(ft.Hash(0), ft) }

func cfgTest() Config {
	cfg := DefaultConfig()
	cfg.InseqTimeout = 15 * time.Microsecond
	cfg.OfoTimeout = 50 * time.Microsecond
	cfg.MaxFlows = 8
	return cfg
}

func TestFirstPacketEntersBuildUp(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(3))
	e := h.entry(testFlow)
	if e == nil {
		t.Fatal("flow not tracked")
	}
	if e.phase != PhaseBuildUp {
		t.Fatalf("phase = %v, want build-up", e.phase)
	}
	if e.seqNext != uint32(3*units.MSS) {
		t.Fatalf("seqNext = %d", e.seqNext)
	}
	if h.j.ActiveLen() != 1 {
		t.Fatal("flow should be on the active list")
	}
	if len(h.segs) != 0 {
		t.Fatal("nothing should be flushed yet")
	}
}

// TestFigure6BuildUpLearning replays the paper's Figure 6: packets 3, 5, 2
// arrive in build-up; seq_next learns backwards to 2; the inseq timeout
// flushes [2,3]; the flow enters active merging with seq_next = 4; a late
// packet 1 is then passed through immediately as a retransmission.
func TestFigure6BuildUpLearning(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(3))
	h.recv(dataPkt(5))
	e := h.entry(testFlow)
	if e.seqNext != uint32(3*units.MSS) {
		t.Fatalf("seqNext should stay at 3 after packet 5, got %d", e.seqNext)
	}
	h.recv(dataPkt(2))
	if e.seqNext != uint32(2*units.MSS) {
		t.Fatalf("seqNext should move back to 2, got %d", e.seqNext)
	}
	if h.j.Stats.BuildUpBackward != 1 {
		t.Fatal("backward learning not counted")
	}

	// inseq_timeout flushes the in-sequence prefix [2,4).
	h.run(20 * time.Microsecond)
	if len(h.segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(h.segs))
	}
	if h.segs[0].Seq != uint32(2*units.MSS) || h.segs[0].Pkts != 2 {
		t.Fatalf("flushed %+v", h.segs[0])
	}
	if e.phase != PhaseActiveMerge {
		t.Fatalf("phase = %v, want active-merge", e.phase)
	}
	if e.seqNext != uint32(4*units.MSS) {
		t.Fatalf("seqNext = %d, want 4*MSS", e.seqNext)
	}

	// Retransmitted packet 1: immediately flushed, not buffered.
	before := len(h.segs)
	h.recv(dataPkt(1))
	if len(h.segs) != before+1 {
		t.Fatal("retransmission should pass through immediately")
	}
	if h.j.Stats.Retransmissions != 1 {
		t.Fatal("retransmission not counted")
	}
	if e.sl.Pkts() != 1 { // only packet 5 remains buffered
		t.Fatalf("buffered pkts = %d, want 1", e.sl.Pkts())
	}
}

func TestBuildUpLearningDisabledAblation(t *testing.T) {
	cfg := cfgTest()
	cfg.DisableBuildUpLearning = true
	h := newHarness(cfg)
	h.recv(dataPkt(3))
	h.recv(dataPkt(2)) // would normally learn backwards; now passes through
	if h.j.Stats.Retransmissions != 1 || len(h.segs) != 1 {
		t.Fatal("disabled learning should pass early packets through")
	}
	if h.entry(testFlow).seqNext != uint32(3*units.MSS) {
		t.Fatal("seqNext must not move backwards when disabled")
	}
}

func TestInOrderFlowMergesAndFlushesAt64KB(t *testing.T) {
	h := newHarness(cfgTest())
	for i := 0; i < 44; i++ {
		h.recv(dataPkt(i))
	}
	// 44 MSS = the 64KB budget: head segment is full -> event flush.
	if len(h.segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(h.segs))
	}
	if h.segs[0].Pkts != 44 {
		t.Fatalf("batching extent = %d MTUs, want 44", h.segs[0].Pkts)
	}
	e := h.entry(testFlow)
	if e.phase != PhasePostMerge {
		t.Fatalf("phase = %v, want post-merge (queue empty after flush)", e.phase)
	}
	if h.j.ActiveLen() != 0 || h.j.InactiveLen() != 1 {
		t.Fatal("flow should have moved to the inactive list")
	}
}

func TestPSHFlushesImmediately(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	p := dataPkt(1)
	p.Flags |= packet.FlagPSH
	h.recv(p)
	if len(h.segs) != 1 {
		t.Fatalf("PSH should flush the in-sequence run, segs=%d", len(h.segs))
	}
	if h.segs[0].Pkts != 2 || !h.segs[0].Flags.Has(packet.FlagPSH) {
		t.Fatalf("segment = %+v", h.segs[0])
	}
}

func TestPureACKPassesThrough(t *testing.T) {
	h := newHarness(cfgTest())
	ack := &packet.Packet{Flow: testFlow, Flags: packet.FlagACK, AckSeq: 99}
	h.recv(ack)
	if len(h.segs) != 1 || h.segs[0].Bytes != 0 {
		t.Fatal("pure ACK should pass through untracked")
	}
	if h.j.TableLen() != 0 {
		t.Fatal("pure ACKs must not create flow state")
	}
}

func TestReorderingHiddenFromStack(t *testing.T) {
	// Deliver 20 packets with heavy displacement; Juggler must deliver all
	// bytes in order (single growing seq_next) given time to reassemble.
	h := newHarness(cfgTest())
	order := []int{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18}
	for _, s := range order {
		h.recv(dataPkt(s))
	}
	h.run(100 * time.Microsecond) // let timeouts flush the tail
	var covered int
	prevEnd := uint32(0)
	for _, seg := range h.segs {
		if seg.Seq != prevEnd {
			t.Fatalf("out-of-order delivery to stack: seg at %d, expected %d", seg.Seq, prevEnd)
		}
		prevEnd = seg.EndSeq()
		covered += seg.Bytes
	}
	if covered != 20*units.MSS {
		t.Fatalf("covered %d bytes, want %d", covered, 20*units.MSS)
	}
}

func TestInseqTimeoutFlushesPartialBatch(t *testing.T) {
	h := newHarness(cfgTest())
	for i := 0; i < 5; i++ {
		h.recv(dataPkt(i))
	}
	if len(h.segs) != 0 {
		t.Fatal("nothing should flush before the timeout")
	}
	h.run(14 * time.Microsecond)
	if len(h.segs) != 0 {
		t.Fatal("still inside inseq_timeout")
	}
	h.run(2 * time.Microsecond)
	if len(h.segs) != 1 || h.segs[0].Pkts != 5 {
		t.Fatalf("inseq flush wrong: %d segs", len(h.segs))
	}
}

func TestOfoTimeoutEntersLossRecovery(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond) // flush [0,1): active merge, seqNext=1
	// Now a hole: packets 2,3,5 buffered, 1 missing (Figure 7 setup).
	h.recv(dataPkt(2))
	h.recv(dataPkt(3))
	h.recv(dataPkt(5))
	e := h.entry(testFlow)
	if e.phase != PhaseActiveMerge {
		t.Fatalf("phase = %v", e.phase)
	}
	base := len(h.segs)
	h.run(60 * time.Microsecond) // ofo_timeout expires
	if e.phase != PhaseLossRecovery {
		t.Fatalf("phase = %v, want loss-recovery", e.phase)
	}
	if h.j.LossLen() != 1 {
		t.Fatal("flow should be on the loss list")
	}
	if e.lostSeq != uint32(1*units.MSS) {
		t.Fatalf("lostSeq = %d, want seq of packet 1", e.lostSeq)
	}
	// Packets 2,3 (merged) and 5 flushed: two segments.
	if len(h.segs) != base+2 {
		t.Fatalf("flushed %d segments, want 2", len(h.segs)-base)
	}
	if e.seqNext != uint32(6*units.MSS) {
		t.Fatalf("seqNext = %d, want 6*MSS", e.seqNext)
	}
	if h.j.Stats.OfoTimeouts != 1 {
		t.Fatal("ofo timeout not counted")
	}
}

// TestFigure7LossRecoveryExit replays Figure 7 end to end: after the ofo
// expiry (seq_next=6, lost_seq=1), packets 7 and 6 are enqueued, then the
// retransmitted packet 1 fills the hole and the flow returns to the active
// list — even though packet 4 was never seen (best effort).
func TestFigure7LossRecoveryExit(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond)
	h.recv(dataPkt(2))
	h.recv(dataPkt(3))
	h.recv(dataPkt(5))
	h.run(60 * time.Microsecond) // -> loss recovery, seqNext=6, lostSeq=1
	e := h.entry(testFlow)

	h.recv(dataPkt(7))
	h.recv(dataPkt(6))
	if e.phase != PhaseLossRecovery {
		t.Fatal("packets >= seqNext must not exit loss recovery")
	}
	if e.sl.Pkts() != 2 {
		t.Fatalf("buffered = %d, want 2 (packets 6,7)", e.sl.Pkts())
	}

	before := len(h.segs)
	h.recv(dataPkt(1)) // fills the hole
	if len(h.segs) != before+1 {
		t.Fatal("hole-filling retransmission should flush immediately")
	}
	if e.phase != PhaseActiveMerge {
		t.Fatalf("phase = %v, want active-merge (hole filled, queue non-empty)", e.phase)
	}
	if h.j.LossLen() != 0 || h.j.ActiveLen() != 1 {
		t.Fatal("flow should be back on the active list")
	}
	if h.j.Stats.LossRecoveryExited != 1 {
		t.Fatal("exit not counted")
	}
}

func TestLossRecoveryExitToPostMergeWhenQueueEmpty(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond)
	h.recv(dataPkt(2))
	h.run(60 * time.Microsecond) // loss recovery; queue flushed empty
	e := h.entry(testFlow)
	h.recv(dataPkt(1)) // fill hole with empty queue
	if e.phase != PhasePostMerge {
		t.Fatalf("phase = %v, want post-merge", e.phase)
	}
	if h.j.InactiveLen() != 1 {
		t.Fatal("flow should be inactive")
	}
}

func TestPostMergeReactivation(t *testing.T) {
	h := newHarness(cfgTest())
	for i := 0; i < 44; i++ {
		h.recv(dataPkt(i))
	}
	e := h.entry(testFlow)
	if e.phase != PhasePostMerge {
		t.Fatalf("setup: phase = %v", e.phase)
	}
	h.recv(dataPkt(44))
	if e.phase != PhaseActiveMerge {
		t.Fatalf("phase = %v, want active-merge after new packet", e.phase)
	}
	if h.j.ActiveLen() != 1 || h.j.InactiveLen() != 0 {
		t.Fatal("flow should be back on the active list")
	}
}

func flowN(n int) packet.FiveTuple {
	ft := testFlow
	ft.SrcPort = uint16(1000 + n)
	return ft
}

func TestEvictionPrefersInactive(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 2
	h := newHarness(cfg)

	// Flow A: complete a 64KB batch -> post merge (inactive).
	for i := 0; i < 44; i++ {
		p := dataPkt(i)
		p.Flow = flowN(0)
		h.recv(p)
	}
	// Flow B: leave a hole -> active merge with buffered packets.
	pb := dataPkt(0)
	pb.Flow = flowN(1)
	h.recv(pb)
	h.run(20 * time.Microsecond)
	pb2 := dataPkt(2)
	pb2.Flow = flowN(1)
	h.recv(pb2)

	// Flow C arrives: table full; inactive flow A must be the victim.
	pc := dataPkt(0)
	pc.Flow = flowN(2)
	h.recv(pc)

	if h.j.Stats.EvictionsInactive != 1 || h.j.Stats.EvictionsActive != 0 {
		t.Fatalf("evictions: inactive=%d active=%d",
			h.j.Stats.EvictionsInactive, h.j.Stats.EvictionsActive)
	}
	if h.entry(flowN(0)) != nil {
		t.Fatal("flow A should be gone")
	}
	if h.entry(flowN(1)) == nil || h.entry(flowN(2)) == nil {
		t.Fatal("flows B and C should be tracked")
	}
}

func TestEvictionFallsBackToActiveFIFO(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 2
	h := newHarness(cfg)
	// Two active flows with holes (never flushed).
	for n := 0; n < 2; n++ {
		p := dataPkt(1) // starts at 1: no in-seq flush possible yet
		p.Flow = flowN(n)
		h.recv(p)
	}
	// Third flow: oldest active (flow 0) evicted, its packet flushed.
	p := dataPkt(0)
	p.Flow = flowN(2)
	h.recv(p)
	if h.j.Stats.EvictionsActive != 1 {
		t.Fatalf("active evictions = %d", h.j.Stats.EvictionsActive)
	}
	if h.entry(flowN(0)) != nil {
		t.Fatal("FIFO should evict the oldest active flow")
	}
	if h.j.Stats.FlushEvict != 1 {
		t.Fatal("eviction must flush buffered packets")
	}
}

func TestEvictionSparesLossRecovery(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 2
	h := newHarness(cfg)

	// Flow 0 -> loss recovery.
	p0 := dataPkt(0)
	p0.Flow = flowN(0)
	h.recv(p0)
	h.run(20 * time.Microsecond)
	p0b := dataPkt(2)
	p0b.Flow = flowN(0)
	h.recv(p0b)
	h.run(60 * time.Microsecond)
	if h.entry(flowN(0)).phase != PhaseLossRecovery {
		t.Fatal("setup: flow 0 should be in loss recovery")
	}
	// Flow 1 active.
	p1 := dataPkt(1)
	p1.Flow = flowN(1)
	h.recv(p1)
	// Flow 2 arrives: victim must be flow 1 (active), not flow 0 (loss).
	p2 := dataPkt(0)
	p2.Flow = flowN(2)
	h.recv(p2)
	if h.entry(flowN(0)) == nil {
		t.Fatal("loss-recovery flow must be spared")
	}
	if h.entry(flowN(1)) != nil {
		t.Fatal("active flow should have been evicted")
	}
}

func TestEvictFIFOAblationEvictsActiveWithHoles(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 1
	cfg.Eviction = EvictFIFO
	h := newHarness(cfg)
	p := dataPkt(1)
	p.Flow = flowN(0)
	h.recv(p)
	p2 := dataPkt(0)
	p2.Flow = flowN(1)
	h.recv(p2)
	if h.j.Stats.EvictionsActive != 1 {
		t.Fatal("FIFO ablation should evict the active flow")
	}
}

func TestTableBounded(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 8
	h := newHarness(cfg)
	for n := 0; n < 100; n++ {
		p := dataPkt(0)
		p.Flow = flowN(n)
		h.recv(p)
	}
	if h.j.TableLen() > 8 {
		t.Fatalf("table grew to %d, limit 8", h.j.TableLen())
	}
}

func TestByteConservation(t *testing.T) {
	// Every payload byte received must be delivered exactly once (no loss,
	// no duplication inside Juggler), under arbitrary reordering.
	h := newHarness(cfgTest())
	sent := 0
	order := []int{5, 1, 0, 9, 3, 2, 8, 4, 7, 6, 15, 11, 10, 13, 12, 14}
	for _, s := range order {
		h.recv(dataPkt(s))
		sent += units.MSS
	}
	h.run(time.Millisecond)
	h.j.Flush()
	got := 0
	for _, seg := range h.segs {
		got += seg.Bytes
	}
	if got != sent {
		t.Fatalf("delivered %d bytes, sent %d", got, sent)
	}
}

func TestDuplicatePassedThrough(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(1))
	h.recv(dataPkt(1))
	if h.j.Stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d", h.j.Stats.Duplicates)
	}
	if len(h.segs) != 1 {
		t.Fatal("duplicate should be passed up for D-SACK handling")
	}
}

func TestPollCompleteChecksTimeouts(t *testing.T) {
	// With a zero inseq timeout, PollComplete alone must flush in-sequence
	// data (no timer involvement): this is Figure 12's timeout=0 regime.
	cfg := cfgTest()
	cfg.InseqTimeout = 0
	h := newHarness(cfg)
	h.recv(dataPkt(0))
	h.recv(dataPkt(1))
	if len(h.segs) != 0 {
		t.Fatal("no flush before poll completion")
	}
	h.j.PollComplete()
	if len(h.segs) != 1 || h.segs[0].Pkts != 2 {
		t.Fatalf("poll completion should flush the batch: %d segs", len(h.segs))
	}
}

func TestSecondOfoTimeoutKeepsOriginalLostSeq(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond)
	h.recv(dataPkt(2))
	h.run(60 * time.Microsecond) // loss recovery, lostSeq = 1*MSS
	e := h.entry(testFlow)
	first := e.lostSeq
	// Another hole while in loss recovery: 4 buffered, 3 missing.
	h.recv(dataPkt(4))
	h.run(60 * time.Microsecond) // second ofo expiry
	if e.lostSeq != first {
		t.Fatal("best-effort: original lost_seq must be preserved")
	}
	if e.phase != PhaseLossRecovery {
		t.Fatal("flow should remain in loss recovery")
	}
}

func TestCountersReportOOOWork(t *testing.T) {
	h := newHarness(cfgTest())
	h.recv(dataPkt(0))
	h.recv(dataPkt(2))
	ack := &packet.Packet{Flow: testFlow, Flags: packet.FlagACK}
	h.recv(ack)
	c := h.j.Counters()
	if c.Packets != 3 {
		t.Fatalf("packets = %d", c.Packets)
	}
	// Packet 0 is a plain in-sequence tail append (GRO-equivalent fast
	// path, no extra cost); packet 2 opens a hole and needs OOO surgery.
	if c.OOOWork != 1 {
		t.Fatalf("OOO work = %d, want 1 (fast path uncharged, ACK passes through)", c.OOOWork)
	}
}

func TestZeroTimeoutsDegenerate(t *testing.T) {
	// Both timeouts zero: everything flushes at each poll completion; no
	// livelock, bytes conserved.
	cfg := cfgTest()
	cfg.InseqTimeout = 0
	cfg.OfoTimeout = 0
	h := newHarness(cfg)
	h.recv(dataPkt(1))
	h.recv(dataPkt(0))
	h.recv(dataPkt(3))
	h.j.PollComplete()
	h.run(time.Millisecond)
	got := 0
	for _, seg := range h.segs {
		got += seg.Bytes
	}
	if got != 3*units.MSS {
		t.Fatalf("delivered %d bytes", got)
	}
}

// TestFigure8EvictionStuckScenario reproduces the Figure 8 hazard the
// eviction policy avoids: if an active flow with buffered packets 2,3 is
// force-evicted, packets 2,3 are flushed; when 4 and 1 later arrive, 1 is
// flushed after inseq_timeout, but 4 must wait a full ofo_timeout because
// the already-flushed 2,3 will never come.
func TestFigure8EvictionStuckScenario(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 1
	h := newHarness(cfg)

	// seq_next=1 after a first flush; 2,3 buffered.
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond)
	h.recv(dataPkt(2))
	h.recv(dataPkt(3))

	// New flow forces eviction (MaxFlows=1): 2,3 flushed.
	p := dataPkt(0)
	p.Flow = flowN(9)
	h.recv(p)
	if h.j.Stats.EvictionsActive != 1 {
		t.Fatal("eviction should have occurred")
	}

	// The evicted flow re-enters with packets 4 then 1.
	h.recv(dataPkt(4)) // evicts flowN(9) in turn; re-creates testFlow
	h.recv(dataPkt(1))
	e := h.entry(testFlow)
	if e == nil {
		t.Fatal("flow should be re-tracked")
	}
	// Build-up learning lets 1 flush after inseq_timeout...
	h.run(20 * time.Microsecond)
	found1 := false
	for _, seg := range h.segs {
		if seg.Seq == uint32(units.MSS) {
			found1 = true
		}
	}
	if !found1 {
		t.Fatal("packet 1 should flush via inseq timeout")
	}
	// ...but 4 is stuck until ofo_timeout (2,3 will never arrive).
	stuck := e.sl.Pkts()
	if stuck != 1 {
		t.Fatalf("packet 4 should still be buffered, have %d", stuck)
	}
	h.run(60 * time.Microsecond)
	if e.sl.Pkts() != 0 {
		t.Fatal("ofo timeout should eventually free packet 4")
	}
}

// TestAdversarialNewFlowFlood replays the §3.3 worst case: every packet
// belongs to a brand-new flow. The table, the lists, and buffered memory
// must stay bounded, and every byte must still be delivered.
func TestAdversarialNewFlowFlood(t *testing.T) {
	cfg := cfgTest()
	cfg.MaxFlows = 16
	h := newHarness(cfg)
	const n = 5000
	sent := 0
	for i := 0; i < n; i++ {
		p := dataPkt(i % 7) // varying, often out-of-order starts
		p.Flow = flowN(i)
		h.recv(p)
		sent += p.PayloadLen
		if h.j.TableLen() > 16 {
			t.Fatalf("table grew to %d", h.j.TableLen())
		}
		if h.j.BufferedBytes() > 16*units.TSOMaxBytes {
			t.Fatalf("buffered %d bytes, beyond the MaxFlows*64KB bound", h.j.BufferedBytes())
		}
	}
	h.run(time.Millisecond)
	h.j.Flush()
	got := 0
	for _, seg := range h.segs {
		got += seg.Bytes
	}
	if got != sent {
		t.Fatalf("delivered %d of %d bytes", got, sent)
	}
	h.j.checkInvariants()
}

// TestPropertyStateMachineInvariants feeds random packet sequences across
// a handful of flows and checks the list/table invariants after every
// single operation.
func TestPropertyStateMachineInvariants(t *testing.T) {
	f := func(ops []uint16, maxFlowsRaw uint8) bool {
		cfg := cfgTest()
		cfg.MaxFlows = int(maxFlowsRaw)%8 + 1
		h := newHarness(cfg)
		for _, op := range ops {
			flow := int(op>>12) & 0x7
			seq := int(op) & 0x3f
			p := dataPkt(seq)
			p.Flow = flowN(flow)
			if op&0x80 != 0 {
				p.Flags |= packet.FlagPSH
			}
			h.recv(p)
			h.j.checkInvariants()
			if op&0x100 != 0 {
				h.run(time.Duration(op&0x3f) * time.Microsecond)
				h.j.checkInvariants()
			}
		}
		h.run(2 * time.Millisecond)
		h.j.checkInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedBytesTracksQueue verifies the memory accounting.
func TestBufferedBytesTracksQueue(t *testing.T) {
	h := newHarness(cfgTest())
	if h.j.BufferedBytes() != 0 {
		t.Fatal("fresh instance should hold nothing")
	}
	h.recv(dataPkt(0))
	h.recv(dataPkt(2))
	if got := h.j.BufferedBytes(); got != 2*units.MSS {
		t.Fatalf("buffered = %d, want 2 MSS", got)
	}
	h.run(time.Millisecond) // timeouts drain everything
	if h.j.BufferedBytes() != 0 {
		t.Fatalf("still buffering %d bytes after timeouts", h.j.BufferedBytes())
	}
}

// TestTraceHooks verifies the optional event recorder captures the
// interesting transitions.
func TestTraceHooks(t *testing.T) {
	h := newHarness(cfgTest())
	k := telemetry.New(h.s, telemetry.Options{EventCap: 64})
	h.j.Instrument(k)
	h.recv(dataPkt(0))
	h.run(20 * time.Microsecond) // inseq flush
	h.recv(dataPkt(2))           // hole opens
	h.recv(dataPkt(4))           // second out-of-order segment: queue surgery
	h.run(60 * time.Microsecond) // ofo timeout -> loss recovery
	ops := map[telemetry.Op]bool{}
	for _, e := range k.Recorder.Records() {
		ops[e.Op] = true
	}
	for _, want := range []telemetry.Op{telemetry.OpFlush, telemetry.OpBuffer, telemetry.OpTimeout} {
		if !ops[want] {
			t.Fatalf("missing %v event; have %s", want, k.Recorder.Summary())
		}
	}
}

// TestSequenceWraparound runs a reordered stream across the 2^32 sequence
// boundary: flow state, buffering, and in-order delivery must all survive
// the wrap.
func TestSequenceWraparound(t *testing.T) {
	h := newHarness(cfgTest())
	base := ^uint32(0) - uint32(10*units.MSS) + 1 // 10 MSS below the wrap
	mk := func(i int) *packet.Packet {
		return &packet.Packet{
			Flow: testFlow, Seq: base + uint32(i*units.MSS),
			PayloadLen: units.MSS, Flags: packet.FlagACK,
		}
	}
	// 20 packets straddling the wrap, adjacent pairs swapped.
	for i := 0; i < 20; i += 2 {
		h.recv(mk(i + 1))
		h.recv(mk(i))
	}
	h.run(time.Millisecond)
	h.j.Flush()
	var prev uint32
	first := true
	total := 0
	for _, seg := range h.segs {
		if !first && seg.Seq != prev {
			t.Fatalf("delivery gap at seq %d (expected %d)", seg.Seq, prev)
		}
		first = false
		prev = seg.EndSeq()
		total += seg.Bytes
	}
	if total != 20*units.MSS {
		t.Fatalf("delivered %d bytes, want %d", total, 20*units.MSS)
	}
	h.j.checkInvariants()
}

func TestConfigValidation(t *testing.T) {
	s := sim.New(1)
	mustPanic := func(cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(s, cfg, func(*packet.Segment) {})
	}
	mustPanic(Config{MaxFlows: 0})
	mustPanic(Config{MaxFlows: 1, InseqTimeout: -time.Second})
	mustPanic(Config{MaxFlows: 1, OfoTimeout: -time.Second})
}
