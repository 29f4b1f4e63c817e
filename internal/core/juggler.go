// Package core implements Juggler, the paper's contribution: a reordering
// resilient extension of the GRO layer (§4).
//
// Juggler keeps a small table of recently active flows (gro_table). For
// each flow it buffers out-of-order packets in a sorted queue, merges
// contiguous runs into large segments, and flushes segments up the stack
// in a best-effort in-order fashion, governed by two timeouts:
//
//   - inseq_timeout bounds how long in-sequence packets may be held for
//     batching (CPU efficiency vs. latency);
//   - ofo_timeout bounds how long a flow may wait for a missing packet
//     before it is presumed lost (reordering resilience vs. loss-recovery
//     delay).
//
// Flows move through five phases — build-up, active merging, post merge,
// loss recovery (plus the transient initial phase) — and live on one of
// three lists (active, inactive, loss recovery) that drive the aggressive
// eviction policy bounding memory (§4.3).
//
// The data structures are sized for flow-scale operation (100k+ concurrent
// flows per instance): the gro_table is an open-addressing hash table over
// the NIC-computed five-tuple hash, flow entries and segments recycle
// through free lists, per-instance buffered-byte accounting is incremental,
// and timeout expiry pops a deadline-ordered queue instead of scanning
// every flow — all O(1) or O(expired) per operation, allocation-free in
// steady state.
package core

import (
	"errors"
	"fmt"
	"time"

	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/reasm"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// Phase is a flow's position in the Juggler life cycle (Figure 5).
type Phase uint8

// The flow phases of §4.2. The transient initial phase (first packet of an
// unknown flow) immediately becomes PhaseBuildUp and is not represented.
const (
	PhaseBuildUp Phase = iota
	PhaseActiveMerge
	PhasePostMerge
	PhaseLossRecovery
)

// String names the phase for traces and tests.
func (p Phase) String() string {
	switch p {
	case PhaseBuildUp:
		return "build-up"
	case PhaseActiveMerge:
		return "active-merge"
	case PhasePostMerge:
		return "post-merge"
	case PhaseLossRecovery:
		return "loss-recovery"
	}
	return "?"
}

// EvictionPolicy selects which flows may be evicted when gro_table is full.
type EvictionPolicy uint8

const (
	// EvictInactiveFirst is the paper's policy: evict post-merge flows
	// first (their queues are empty and hole-free), then active flows in
	// FIFO order, and loss-recovery flows only as a last resort.
	EvictInactiveFirst EvictionPolicy = iota
	// EvictFIFO ignores phases and evicts the oldest flow regardless of
	// list — the §4.3 ablation showing why phase-aware eviction matters.
	EvictFIFO
)

// Config tunes a Juggler instance. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// InseqTimeout is the maximum time in-sequence packets are held for
	// batching. Rule of thumb (§5.2.1): the time to receive a maximum
	// batch (64 KB) at line rate — 52us at 10G, 13us at 40G.
	InseqTimeout time.Duration

	// OfoTimeout is the maximum time to wait for a missing packet before
	// flushing the out-of-order queue and presuming loss. Set it to the
	// expected maximum delay difference across paths, minus the interrupt
	// coalescing period (§5.2.1).
	OfoTimeout time.Duration

	// MaxFlows bounds gro_table. §5.2.2: 8 entries suffice for per-packet
	// load balancing; 64 cover up to 1 ms of reordering.
	MaxFlows int

	// DisableBuildUpLearning turns off the build-up phase's backward
	// seq_next learning (Remark 1 ablation): the first packet's sequence
	// number is frozen as the flush floor immediately.
	DisableBuildUpLearning bool

	// Eviction selects the eviction policy (ablation hook).
	Eviction EvictionPolicy

	// Backend is always reasm.KindSegList; bench/ladder.go is its only reason to exist.
	Backend reasm.Kind
}

// DefaultConfig returns the paper's default tuning: inseq_timeout 15us,
// ofo_timeout 50us (§5), and a 64-entry table.
func DefaultConfig() Config {
	return Config{
		InseqTimeout: 15 * time.Microsecond,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     64,
	}
}

// Stats exposes Juggler's internal event counters for the evaluation.
type Stats struct {
	// FlushEvent counts segments flushed by event-driven conditions
	// (64 KB reached, terminating flags, merge-boundary).
	FlushEvent int64
	// FlushInseqTimeout counts segments flushed by inseq_timeout.
	FlushInseqTimeout int64
	// FlushOfoTimeout counts segments flushed by ofo_timeout expiry.
	FlushOfoTimeout int64
	// FlushEvict counts segments flushed because their flow was evicted.
	FlushEvict int64
	// Retransmissions counts packets passed through immediately because
	// their sequence number was before seq_next (Table 2, row 1).
	Retransmissions int64
	// Duplicates counts packets whose range was already buffered.
	Duplicates int64
	// OfoTimeouts counts ofo_timeout expirations (loss inferences).
	OfoTimeouts int64
	// Evictions counts flows evicted, by the phase they were in.
	EvictionsInactive, EvictionsActive, EvictionsLoss int64
	// LossRecoveryEntered / Exited count loss-list transitions.
	LossRecoveryEntered, LossRecoveryExited int64
	// BuildUpBackward counts seq_next backward moves learned in build-up.
	BuildUpBackward int64
}

// Add accumulates o into s — the deterministic merge for per-RX-queue
// Juggler instances summed into one host view (queue order, any shard
// count: addition commutes).
func (s *Stats) Add(o Stats) {
	s.FlushEvent += o.FlushEvent
	s.FlushInseqTimeout += o.FlushInseqTimeout
	s.FlushOfoTimeout += o.FlushOfoTimeout
	s.FlushEvict += o.FlushEvict
	s.Retransmissions += o.Retransmissions
	s.Duplicates += o.Duplicates
	s.OfoTimeouts += o.OfoTimeouts
	s.EvictionsInactive += o.EvictionsInactive
	s.EvictionsActive += o.EvictionsActive
	s.EvictionsLoss += o.EvictionsLoss
	s.LossRecoveryEntered += o.LossRecoveryEntered
	s.LossRecoveryExited += o.LossRecoveryExited
	s.BuildUpBackward += o.BuildUpBackward
}

// flowEntry is the per-flow state of §4.1 plus intrusive list linkage, the
// open-addressing table's cached key hash, and the deadline-queue anchor.
// Entries recycle through the Juggler's free list; release keeps the
// out-of-order queue's backing arrays so steady-state flow churn never
// allocates.
type flowEntry struct {
	key  packet.FiveTuple
	hash uint32 // key.Hash(0), cached for probing
	// sl is the flow's out-of-order queue, embedded: a flow is one
	// allocation, and its queue is no pointer hop away. It survives
	// release with its backing arrays, so a recycled entry buffers
	// without allocating.
	sl reasm.SegList
	// holdStart anchors the timeout clocks: the later of the last flush
	// and the instant the queue went from empty to non-empty. Using the
	// raw flush timestamp would spuriously expire a freshly reactivated
	// flow whose last flush was long ago.
	holdStart sim.Time
	seqNext   uint32
	lostSeq   uint32
	phase     Phase

	prev, next *flowEntry
	list       *flowList
	// listSeq is a monotone stamp assigned on every list push. Lists only
	// append, so iteration order within a list is ascending listSeq — the
	// FIFO key of the expiry order sortDue imposes on the due set.
	listSeq uint64

	// batched marks the flow as already on the ReceiveBatch touched list,
	// so a flow hit by many packets of one poll batch is re-filed in the
	// deadline queue once. releaseFlow's zeroing clears it with the rest.
	batched bool

	// dl is the flow's deadline-queue item: the armed deadline and the
	// arming seq of the flow's one live slot in the Juggler's queue (seq
	// 0: not queued). The queue's slots hold the keys, so ordering them
	// never loads this entry; slots left by re-arms and removals go stale
	// and are dropped lazily. The stored deadline always equals
	// flowDeadline (maintained by updateDeadline at every mutation site).
	dl sim.DeadlineItem
}

// flowList is an intrusive FIFO doubly-linked list (the active, inactive
// and loss-recovery lists of Figure 4).
type flowList struct {
	head, tail *flowEntry
	n          int
	// evictions is the Stats counter evict bumps for a victim on this list.
	evictions *int64
}

func (l *flowList) pushBack(e *flowEntry) {
	if e.list != nil {
		panic("core: flow already on a list")
	}
	e.list = l
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *flowList) remove(e *flowEntry) {
	if e.list != l {
		panic("core: flow not on this list")
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next, e.list = nil, nil, nil
	l.n--
}

// Juggler is one instance of the reordering-resilient GRO layer. Each NIC
// receive queue owns its own instance ("different RX queues operate
// independently and have their private data structures", §4).
type Juggler struct {
	sim     *sim.Sim
	cfg     Config
	deliver gro.Deliver

	table    flowTable
	active   flowList
	inactive flowList
	loss     flowList
	// lastEntry memoizes the most recent table hit: traffic clusters by
	// flow (several packets per poll batch), so consecutive lookups
	// usually skip the slot-array probe and go straight to the entry.
	// releaseFlow clears it — a recycled entry may be reborn as a
	// different flow.
	lastEntry *flowEntry

	// dq orders every flow holding packets by its next timeout instant, so
	// expiry visits only due flows. due is the reusable scratch the expiry
	// path collects them into; pushSeq feeds flowEntry.listSeq.
	dq      *sim.DeadlineQueue[*flowEntry]
	due     []*flowEntry
	pushSeq uint64

	// touched collects the flows a ReceiveBatch buffered into (deduplicated
	// by flowEntry.batched): bufferAndCheck defers their deadline-queue
	// re-file so the batch epilogue restores the deadline invariant with
	// one pass. The timer arm is NOT deferred — arm only schedules
	// when the minimum deadline improves, and arming per packet makes the
	// event sequence independent of how a poll is split into batches.
	touched []*flowEntry
	// one is the one-slot batch Receive hands to ReceiveBatch.
	one [1]*packet.Packet

	// freeFlows chains released entries (through their next pointers) for
	// reuse; segPool recycles the segments the out-of-order queues mint.
	freeFlows *flowEntry
	segPool   *packet.SegPool

	// buffered/bufferedPkts aggregate the out-of-order queue contents
	// across all flows, maintained incrementally at every insert, flush
	// and drain so BufferedBytes is O(1).
	buffered     int
	bufferedPkts int

	timer *sim.Timer

	c     gro.Counters
	Stats Stats

	// tel is the run's telemetry sink; nil disables recording at the cost
	// of one branch per event site. hFlushPkts is a nil no-op when
	// telemetry is off; the counter metrics are views of Stats.
	tel        *telemetry.Sink
	hFlushPkts *stats.QuantileSketch

	// Probe, when non-nil, is invoked after every state-mutating entry
	// point (ReceiveBatch, PollComplete, the timeout timer). The chaos
	// invariant checker installs here to audit the gro_table continuously.
	Probe func()
}

// New creates a Juggler instance delivering flushed segments to d.
func New(s *sim.Sim, cfg Config, d gro.Deliver) *Juggler {
	if cfg.MaxFlows <= 0 {
		panic("core: MaxFlows must be positive")
	}
	if cfg.InseqTimeout < 0 || cfg.OfoTimeout < 0 {
		panic("core: negative timeout")
	}
	j := &Juggler{sim: s, cfg: cfg, deliver: d,
		table:   newFlowTable(cfg.MaxFlows),
		segPool: packet.SegPoolFromSim(s),
	}
	j.active.evictions = &j.Stats.EvictionsActive
	j.inactive.evictions = &j.Stats.EvictionsInactive
	j.loss.evictions = &j.Stats.EvictionsLoss
	j.dq = sim.NewDeadlineQueue(func(e *flowEntry) *sim.DeadlineItem { return &e.dl })
	j.timer = sim.NewTimer(s, j.PollComplete)
	j.Instrument(telemetry.FromSim(s))
	return j
}

// Instrument (re)binds the instance to a telemetry sink. New wires up the
// sink attached to the simulation automatically; harnesses that enable
// telemetry after construction call it directly (before any traffic: the
// counter metrics are views of Stats, which count from construction). A
// nil sink disables recording.
func (j *Juggler) Instrument(k *telemetry.Sink) {
	j.tel = k
	r := k.Reg()
	const flushName = "juggler_flush_total"
	const flushHelp = "Juggler segments flushed, by cause (Table 2)."
	r.CounterOf(flushName, flushHelp, "reason", "event", &j.Stats.FlushEvent)
	r.CounterOf(flushName, flushHelp, "reason", "inseq_timeout", &j.Stats.FlushInseqTimeout)
	r.CounterOf(flushName, flushHelp, "reason", "ofo_timeout", &j.Stats.FlushOfoTimeout)
	r.CounterOf(flushName, flushHelp, "reason", "evict", &j.Stats.FlushEvict)
	r.CounterOf("juggler_retransmissions_total", "Packets passed through as inferred retransmissions.", "", "", &j.Stats.Retransmissions)
	r.CounterOf("juggler_duplicates_total", "Packets whose byte range was already buffered.", "", "", &j.Stats.Duplicates)
	r.CounterOf("juggler_ofo_timeouts_total", "ofo_timeout expirations (loss inferences).", "", "", &j.Stats.OfoTimeouts)
	for _, n := range []*int64{&j.Stats.EvictionsInactive, &j.Stats.EvictionsActive, &j.Stats.EvictionsLoss} {
		r.CounterOf("juggler_evictions_total", "Flows evicted from gro_table.", "", "", n)
	}
	j.hFlushPkts = r.Histogram("juggler_flush_pkts", "Packets per flushed segment (batching).")
}

// Telemetry returns the bound sink (nil when telemetry is off).
func (j *Juggler) Telemetry() *telemetry.Sink { return j.tel }

// Config returns the instance's configuration.
func (j *Juggler) Config() Config { return j.cfg }

// Counters implements gro.Offload.
func (j *Juggler) Counters() gro.Counters { return j.c }

// ActiveLen returns the current length of the active list (Figures 15/16).
func (j *Juggler) ActiveLen() int { return j.active.n }

// InactiveLen returns the current length of the inactive list.
func (j *Juggler) InactiveLen() int { return j.inactive.n }

// LossLen returns the current length of the loss recovery list.
func (j *Juggler) LossLen() int { return j.loss.n }

// TableLen returns the number of tracked flows.
func (j *Juggler) TableLen() int { return j.table.len() }

// BufferedBytes returns the total payload bytes currently held across all
// out-of-order queues — the memory the §3.3 DoS analysis bounds. O(1):
// maintained incrementally.
func (j *Juggler) BufferedBytes() int { return j.buffered }

// BufferedPkts returns the total packets currently held across all
// out-of-order queues. O(1): maintained incrementally.
func (j *Juggler) BufferedPkts() int { return j.bufferedPkts }

// enlist appends e to l, stamping the push-order sequence the deadline
// expiry path sorts by. All list pushes go through here.
func (j *Juggler) enlist(l *flowList, e *flowEntry) {
	e.listSeq = j.pushSeq
	j.pushSeq++
	l.pushBack(e)
}

// flowHash returns the canonical salt-0 hash for p, reusing the value the
// NIC RSS stage stamped when present. A stamped hash always equals
// Flow.Hash(0), so the fallback is consistent with it.
func flowHash(p *packet.Packet) uint32 {
	if p.FlowHash != 0 {
		return p.FlowHash
	}
	return p.Flow.Hash(0)
}

// CheckInvariants verifies the internal bookkeeping: every tracked flow on
// exactly one list matching its phase, list lengths in agreement with the
// table, post-merge flows holding nothing, the table within its Table-2
// eviction bound, the incremental byte/packet accounting matching a full
// recount, and the deadline queue holding exactly the flows with pending
// timeouts at their current deadlines, its earliest live slot at the
// earliest of them. It returns nil when consistent and changes nothing.
// Tests and the chaos invariant checker call it after operations; it is
// not on the hot path.
func (j *Juggler) CheckInvariants() error {
	count := func(l *flowList) int {
		n := 0
		for e := l.head; e != nil; e = e.next {
			n++
		}
		return n
	}
	if count(&j.active) != j.active.n || count(&j.inactive) != j.inactive.n ||
		count(&j.loss) != j.loss.n {
		return errors.New("core: list length bookkeeping out of sync")
	}
	if j.active.n+j.inactive.n+j.loss.n != j.table.len() {
		return errors.New("core: lists and table disagree")
	}
	if j.table.len() > j.cfg.MaxFlows {
		return fmt.Errorf("core: table holds %d flows, exceeding MaxFlows %d",
			j.table.len(), j.cfg.MaxFlows)
	}
	bytes, pkts, deadlines := 0, 0, 0
	minDeadline := sim.Time(0)
	check := func(l *flowList) error {
		var lastSeq uint64
		first := true
		for e := l.head; e != nil; e = e.next {
			var want *flowList
			switch e.phase {
			case PhaseBuildUp, PhaseActiveMerge:
				want = &j.active
			case PhasePostMerge:
				want = &j.inactive
			case PhaseLossRecovery:
				want = &j.loss
			}
			if e.list != want {
				return fmt.Errorf("core: flow %v on the wrong list for phase %v", e.key, e.phase)
			}
			if e.phase == PhasePostMerge && !e.sl.Empty() {
				return fmt.Errorf("core: post-merge flow %v holds packets", e.key)
			}
			if e.hash != e.key.Hash(0) {
				return fmt.Errorf("core: flow %v cached hash is stale", e.key)
			}
			if j.table.get(e.hash, e.key) != e {
				return fmt.Errorf("core: flow %v not reachable in the table", e.key)
			}
			if !first && e.listSeq <= lastSeq {
				return fmt.Errorf("core: flow %v breaks list push ordering", e.key)
			}
			first, lastSeq = false, e.listSeq
			d := j.flowDeadline(e)
			if e.dl.Queued() != !e.sl.Empty() || e.dl.Deadline() != d {
				return fmt.Errorf("core: flow %v deadline-queue state is stale", e.key)
			}
			if !e.sl.Empty() {
				if deadlines == 0 || d < minDeadline {
					minDeadline = d
				}
				deadlines++
			}
			bytes += e.sl.Bytes()
			pkts += e.sl.Pkts()
		}
		return nil
	}
	for _, l := range []*flowList{&j.active, &j.inactive, &j.loss} {
		if err := check(l); err != nil {
			return err
		}
	}
	if bytes != j.buffered || pkts != j.bufferedPkts {
		return fmt.Errorf("core: incremental accounting (%dB/%dp) disagrees with recount (%dB/%dp)",
			j.buffered, j.bufferedPkts, bytes, pkts)
	}
	if j.dq.Len() != deadlines {
		return fmt.Errorf("core: deadline queue holds %d flows, want %d", j.dq.Len(), deadlines)
	}
	// PeekMinDeadline, not MinDeadline: dropping stale slots here would
	// make a checked run's queue differ from an unchecked one.
	if got := j.dq.PeekMinDeadline(); got != minDeadline {
		return fmt.Errorf("core: deadline queue's earliest live deadline %v, want %v", got, minDeadline)
	}
	return nil
}

// checkInvariants is the panicking test helper around CheckInvariants.
func (j *Juggler) checkInvariants() {
	if err := j.CheckInvariants(); err != nil {
		panic(err)
	}
}

// Receive hands ReceiveBatch a one-packet batch: the entry point for
// harnesses that feed packets one at a time.
func (j *Juggler) Receive(p *packet.Packet) {
	j.one[0] = p
	j.ReceiveBatch(j.one[:])
	j.one[0] = nil
}

// ReceiveBatch implements gro.Offload: one NAPI poll's drained batch.
// Its output does not depend on how a poll is split into batches: every
// packet runs the same receive path at the same virtual instant, the
// timer is armed per packet (so the engine schedules the same event
// sequence — identical times AND identical tie-breaking seqs — for any
// split), and the two pieces of epilogue that schedule nothing are
// amortized: each touched flow is re-filed in the deadline queue once
// per batch instead of once per packet, and the chaos Probe audit runs
// once per batch — which is also required for the audit to pass, since
// mid-batch the deadline queue is deliberately stale.
func (j *Juggler) ReceiveBatch(batch []*packet.Packet) {
	if len(batch) == 0 {
		return
	}
	for _, p := range batch {
		j.receive(p)
	}
	for i, e := range j.touched {
		// A flow evicted mid-batch was zeroed by releaseFlow (clearing
		// batched) and detached from the deadline queue already; skip it.
		if e.batched {
			e.batched = false
			j.updateDeadline(e)
		}
		j.touched[i] = nil
	}
	j.touched = j.touched[:0]
	if j.Probe != nil {
		j.Probe()
	}
}

func (j *Juggler) receive(p *packet.Packet) {
	j.c.Packets++
	if p.PassThrough() {
		j.emit(j.segPool.FromPacket(p))
		return
	}

	h := flowHash(p)
	e := j.lastEntry
	if e == nil || e.hash != h || e.key != p.Flow {
		e = j.table.get(h, p.Flow)
		if e == nil {
			// Initial phase (§4.2.1): create the entry, enter build-up.
			e = j.newFlow(p, h)
			j.lastEntry = e
			j.bufferAndCheck(e, p)
			return
		}
		j.lastEntry = e
	}

	switch e.phase {
	case PhaseBuildUp:
		// §4.2.2: seq_next may move backwards while learning.
		if packet.SeqLess(p.Seq, e.seqNext) {
			if j.cfg.DisableBuildUpLearning {
				j.Stats.Retransmissions++
				j.emit(j.segPool.FromPacket(p))
				return
			}
			e.seqNext = p.Seq
			j.Stats.BuildUpBackward++
		}
		j.bufferAndCheck(e, p)

	default:
		// §4.2.3: packets before seq_next are inferred retransmissions
		// and flushed immediately, never buffered (Figure 6).
		if packet.SeqLess(p.Seq, e.seqNext) {
			j.Stats.Retransmissions++
			if j.tel != nil && !p.SkipStamps {
				j.record(e, &telemetry.Record{Op: telemetry.OpPass, Cause: "retransmission",
					Seq: p.Seq, EndSeq: p.EndSeq(), N: int64(p.PayloadLen), Note: "inferred, flushed unbuffered"})
			}
			j.emit(j.segPool.FromPacket(p))
			if e.phase == PhaseLossRecovery && j.fillsHole(e, p) {
				j.exitLossRecovery(e, p.SkipStamps)
			}
			return
		}
		if e.phase == PhasePostMerge {
			// §4.2.4: reverse transition back to active merging.
			j.inactive.remove(e)
			j.enlist(&j.active, e)
			e.phase = PhaseActiveMerge
			if j.tel != nil && !p.SkipStamps {
				j.record(e, &telemetry.Record{Op: telemetry.OpPhase, Cause: telemetry.CausePhaseNewData,
					Seq: p.Seq, EndSeq: p.Seq, Note: "post-merge>active-merge"})
			}
		}
		j.bufferAndCheck(e, p)
	}
}

// fillsHole reports whether packet p covers the recorded first lost byte.
func (j *Juggler) fillsHole(e *flowEntry, p *packet.Packet) bool {
	return packet.SeqLEQ(p.Seq, e.lostSeq) && packet.SeqLess(e.lostSeq, p.EndSeq())
}

// exitLossRecovery moves a flow back toward active merging once its hole
// is filled (best effort: only the first hole is tracked, Figure 7).
// skip carries the triggering packet's stamp-sampling verdict: forensic
// records follow the sampled packets.
func (j *Juggler) exitLossRecovery(e *flowEntry, skip bool) {
	j.loss.remove(e)
	j.Stats.LossRecoveryExited++
	l, note := &j.inactive, "loss-recovery>post-merge"
	e.phase = PhasePostMerge
	if !e.sl.Empty() {
		l, note = &j.active, "loss-recovery>active-merge"
		e.phase = PhaseActiveMerge
	}
	j.enlist(l, e)
	if j.tel != nil && !skip {
		j.record(e, &telemetry.Record{Op: telemetry.OpPhase, Cause: "hole-filled",
			Seq: e.seqNext, EndSeq: e.seqNext, Note: note})
	}
}

// newFlow takes a flow entry from the free list (evicting if the table is
// full, allocating only when the free list is empty), places it on the
// active list in build-up phase, and records the first packet's sequence
// number as the initial seq_next estimate.
func (j *Juggler) newFlow(p *packet.Packet, hash uint32) *flowEntry {
	if j.table.len() >= j.cfg.MaxFlows {
		j.evictOne()
	}
	e := j.freeFlows
	if e != nil {
		j.freeFlows = e.next
		e.next = nil
	} else {
		e = &flowEntry{}
		e.sl.Init(j.segPool)
	}
	now := j.sim.Now()
	e.key = p.Flow
	e.hash = hash
	e.seqNext = p.Seq
	e.phase = PhaseBuildUp
	e.holdStart = now
	j.table.insert(e)
	j.enlist(&j.active, e)
	return e
}

// releaseFlow returns a fully detached entry (off every list, out of the
// table and deadline queue, queue drained) to the free list. The
// out-of-order queue survives the reset with its backing arrays and pool
// binding intact, so the entry's next incarnation buffers without
// allocating. Stale deadline-queue slots may still name the entry; the
// queue's arming seqs never repeat, so none of them matches a later
// incarnation.
func (j *Juggler) releaseFlow(e *flowEntry) {
	if j.lastEntry == e {
		j.lastEntry = nil
	}
	e.sl.Reset()
	*e = flowEntry{sl: e.sl}
	e.next = j.freeFlows
	j.freeFlows = e
}

// bufferAndCheck inserts the packet into the flow's out-of-order queue and
// applies the event-driven flush conditions (Table 2, rows 1-4).
func (j *Juggler) bufferAndCheck(e *flowEntry, p *packet.Packet) {
	if e.sl.Empty() {
		e.holdStart = j.sim.Now()
	}
	res, fastPath := e.sl.Insert(p)
	// InsMerged/InsNew store exactly the packet (Bytes/Pkts grow by
	// PayloadLen/1) and InsDuplicate stores nothing, so the aggregate
	// counters move without re-reading the queue totals.
	if res == reasm.InsMerged || res == reasm.InsNew {
		j.buffered += p.PayloadLen
		j.bufferedPkts++
	}
	if !fastPath {
		if j.tel != nil && !p.SkipStamps {
			j.tel.Record(&telemetry.Record{Layer: telemetry.LayerCore, Op: telemetry.OpBuffer,
				Flow: p.Flow, Seq: p.Seq, N: int64(p.PayloadLen), Note: e.phase.String()})
		}
		// Only genuine out-of-order queue surgery costs more than the
		// in-sequence merge standard GRO already performs.
		j.c.OOOWork++
	}
	if res == reasm.InsDuplicate {
		j.Stats.Duplicates++
		if j.tel != nil && !p.SkipStamps {
			j.record(e, &telemetry.Record{Op: telemetry.OpPass, Cause: "duplicate",
				Seq: p.Seq, EndSeq: p.EndSeq(), N: int64(p.PayloadLen), Note: "range already buffered"})
		}
		j.emit(j.segPool.FromPacket(p)) // hand duplicates to TCP for D-SACK etc.
		return
	}
	// The deadline-queue re-file waits for the batch epilogue (a flow hit
	// by many packets of the batch sifts the heap once, under its final
	// deadline); the timer arm does not. eventFlush hands back the head
	// it stopped on, so the deadline costs no second probe. A deadline of
	// Time 0 (zero timeouts at the simulation origin) does not arm the
	// timer.
	if !e.batched {
		e.batched = true
		j.touched = append(j.touched, e)
	}
	j.arm(j.deadlineForHead(e, j.eventFlush(e)), j.sim.Now())
}

// Decision causes recorded with each forensics decision (constant strings
// so recording never allocates). The flush causes name the Table-2
// condition that closed the segment.
const (
	CauseSealed   = "sealed"        // row 2: PSH/URG/FIN sealed the head
	CauseFull     = "full"          // row 3: cannot grow by another MSS
	CauseBoundary = "boundary"      // row 4: contiguous-but-unmergeable successor
	CauseInseq    = "inseq_timeout" // row 5
	CauseOfo      = "ofo_timeout"   // row 6
	CauseEvict    = "evict"         // table-full eviction drained the flow
	CauseFinal    = "final"         // teardown Flush()

	// Eviction causes: the table ran out of entries, or the adapt
	// controller trimmed the inactive list while the fabric was quiet.
	CauseTableFull = "table-full"
	CauseIdleTrim  = "idle-trim"
)

// record writes one decision through the telemetry sink, filling in the
// flow's seq/hole/queue state at this instant. Callers test j.tel != nil
// (plus the packet's stamp-sampling verdict) before building the Record
// literal, so the uninstrumented path never assembles the ~100-byte
// argument; it is passed by pointer, so no further copy happens until the
// ring writes.
func (j *Juggler) record(e *flowEntry, d *telemetry.Record) {
	d.Layer = telemetry.LayerCore
	d.Flow = e.key
	d.SeqNext = e.seqNext
	if head := e.sl.Head(); head != nil && head.Seq != e.seqNext {
		d.Hole = true
		d.HoleSeq = e.seqNext
	}
	d.QPkts = int64(e.sl.Pkts())
	d.QBytes = int64(e.sl.Bytes())
	j.tel.Record(d)
}

// eventFlush flushes "closed" in-sequence head segments: a head segment is
// closed when it is sealed by terminating flags, full (cannot grow by
// another MSS within 64 KB), or followed by a contiguous-but-unmergeable
// segment (merge boundary: options/CE change or size limit — Table 2 rows
// 2-4). The final open segment is left to accumulate until a timeout.
// It returns the queue head left behind (nil when the queue drained), so
// the per-packet caller can derive the flow's deadline without probing
// the head a second time.
func (j *Juggler) eventFlush(e *flowEntry) *packet.Segment {
	for {
		head := e.sl.Head()
		if head == nil || head.Seq != e.seqNext {
			return head
		}
		var cause string
		switch {
		case head.Sealed():
			cause = CauseSealed
		case head.Bytes+units.MSS > units.TSOMaxBytes:
			cause = CauseFull
		case e.sl.NextContiguous():
			cause = CauseBoundary // successor is contiguous yet unmerged
		default:
			return head
		}
		j.flushHead(e, &j.Stats.FlushEvent, cause)
	}
}

// flushHead delivers the head segment and advances flow state; reason
// points at the statistic to increment; cause names the Table-2 condition
// for the forensics decision record. Callers refresh the flow's deadline-queue
// position afterwards.
func (j *Juggler) flushHead(e *flowEntry, reason *int64, cause string) {
	seg := e.sl.PopHead()
	skip := seg.SkipStamps
	j.buffered -= seg.Bytes
	j.bufferedPkts -= seg.Pkts
	*reason++
	e.seqNext = seg.EndSeq()
	e.holdStart = j.sim.Now()
	j.emitMerged(e, seg, cause)
	j.afterFlush(e, skip)
}

// afterFlush applies the phase transitions that follow any flush. skip
// carries the flushed segment's stamp-sampling verdict: the transitions
// always happen, but their forensic records follow the sampled packets.
func (j *Juggler) afterFlush(e *flowEntry, skip bool) {
	record := j.tel != nil && !skip
	switch e.phase {
	case PhaseBuildUp:
		// First flush ends build-up (§4.2.2 -> §4.2.3).
		e.phase = PhaseActiveMerge
		if record {
			j.record(e, &telemetry.Record{Op: telemetry.OpPhase, Cause: "first-flush",
				Seq: e.seqNext, EndSeq: e.seqNext, Note: "build-up>active-merge"})
		}
		fallthrough
	case PhaseActiveMerge:
		if e.sl.Empty() {
			// §4.2.4: queue drained in sequence -> post merge.
			j.active.remove(e)
			j.enlist(&j.inactive, e)
			e.phase = PhasePostMerge
			if record {
				j.record(e, &telemetry.Record{Op: telemetry.OpPhase, Cause: telemetry.CausePhaseDrained,
					Seq: e.seqNext, EndSeq: e.seqNext, Note: "active-merge>post-merge"})
			}
		}
	case PhaseLossRecovery:
		// Stays on the loss list until the hole is filled.
	case PhasePostMerge:
		panic("core: flush in post-merge phase")
	}
}

// emitMerged records the flush of seg from e with its Table-2 cause and
// forwards the segment with batching statistics. The record is written
// before the segment goes up, so it precedes everything the delivery
// records downstream; the caller has already advanced e's flow state.
func (j *Juggler) emitMerged(e *flowEntry, seg *packet.Segment, cause string) {
	if seg.Pkts > 1 {
		j.c.MergedPkts += int64(seg.Pkts)
	}
	j.hFlushPkts.Observe(int64(seg.Pkts))
	if j.tel != nil && !seg.SkipStamps {
		j.record(e, &telemetry.Record{Op: telemetry.OpFlush, Cause: cause,
			Seq: seg.Seq, EndSeq: seg.EndSeq(), N: int64(seg.Pkts)})
	}
	j.emit(seg)
}

func (j *Juggler) emit(seg *packet.Segment) {
	j.c.Segments++
	j.deliver(seg)
}

// Flush forces out all buffered state (used at simulation teardown so
// byte-conservation checks balance). Flows are walked in deterministic
// list order — active, inactive, loss, FIFO within each — never in table
// order.
func (j *Juggler) Flush() {
	for _, l := range [...]*flowList{&j.active, &j.inactive, &j.loss} {
		for e := l.head; e != nil; e = e.next {
			if !e.sl.Empty() {
				j.drain(e, nil, CauseFinal, false)
				j.dq.Remove(e)
			}
		}
	}
}

var _ gro.Offload = (*Juggler)(nil)
