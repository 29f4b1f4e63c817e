// Package gro models the Generic Receive Offload layer at the entry of the
// network stack (§3 of the paper), providing:
//
//   - the Offload interface shared with Juggler (internal/core);
//   - Vanilla, today's Linux GRO: per-poll in-sequence batching that
//     flushes on any out-of-order arrival and at every poll completion;
//   - LinkedList, the §3.1 strawman that batches packets regardless of
//     order by chaining sk_buffs (cheaper protocol-wise, ~50% more CPU);
//   - Null, offload disabled (every packet delivered individually).
package gro

import (
	"juggler/internal/packet"
	"juggler/internal/stats"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// Deliver is the upcall through which flushed segments enter the rest of
// the stack (netfilter, TCP).
type Deliver func(seg *packet.Segment)

// Counters are the cumulative statistics every offload implementation
// exposes; the NIC driver samples them around each poll to charge the CPU
// model.
type Counters struct {
	// Packets is the number of wire packets examined.
	Packets int64
	// Segments is the number of segments flushed up the stack.
	Segments int64
	// OOOWork counts packets that needed out-of-order bookkeeping
	// (Juggler's extra per-packet cost; zero for vanilla GRO).
	OOOWork int64
	// MergedPkts accumulates packets that were merged into multi-packet
	// segments, for batching-extent statistics.
	MergedPkts int64
}

// Add accumulates o into c — the deterministic merge used when per-RX-
// queue offload instances (serial or shard-lane-hosted) are summed into
// one host view. Addition commutes, so the merged counters are identical
// at any shard count.
func (c *Counters) Add(o Counters) {
	c.Packets += o.Packets
	c.Segments += o.Segments
	c.OOOWork += o.OOOWork
	c.MergedPkts += o.MergedPkts
}

// Offload is the receive-offload layer interface: the NIC driver hands it
// each NAPI poll's drained batch and signals poll completion.
type Offload interface {
	// ReceiveBatch handles one NAPI poll's drained batch, in order. Its
	// output — deliveries, counters, telemetry, scheduled events — MUST
	// NOT depend on how a poll is split into batches: handing the same
	// packets at the same instants one per call or all at once is
	// observably identical. Within that contract the callee may amortize
	// per-packet bookkeeping (deadline re-files, probe audits) across the
	// batch. It may read the slice only for the duration of the call and
	// must not retain it.
	ReceiveBatch(batch []*packet.Packet)
	// PollComplete is invoked when the driver finishes a polling interval.
	PollComplete()
	// Counters returns cumulative statistics.
	Counters() Counters
}

// Null is offload disabled: every packet is delivered as its own segment.
type Null struct {
	deliver Deliver
	pool    *packet.SegPool
	c       Counters
}

// NewNull creates a pass-through offload.
func NewNull(d Deliver) *Null { return &Null{deliver: d} }

// UsePool makes the offload mint segments from pl (nil: heap allocation).
// With every stack minting through the simulation's shared pool, the
// pool's Live count is an exact leak detector at quiescence.
func (n *Null) UsePool(pl *packet.SegPool) { n.pool = pl }

// Receive delivers one packet as its own segment.
func (n *Null) Receive(p *packet.Packet) {
	n.c.Packets++
	n.c.Segments++
	n.deliver(n.pool.FromPacket(p))
}

// ReceiveBatch implements Offload: Null has no per-packet bookkeeping to
// amortize, so the batch form is the plain loop.
func (n *Null) ReceiveBatch(batch []*packet.Packet) {
	for _, p := range batch {
		n.Receive(p)
	}
}

// PollComplete implements Offload.
func (n *Null) PollComplete() {}

// Counters implements Offload.
func (n *Null) Counters() Counters { return n.c }

// Vanilla is today's GRO: it assumes the first packet of a flow in a batch
// is in sequence and merges packets while arrivals stay in sequence-number
// order; it flushes when the merged segment exceeds 64 KB, when the next
// packet is not in sequence, and at every poll completion.
type Vanilla struct {
	deliver Deliver
	pool    *packet.SegPool
	c       Counters

	// merges holds the per-flow in-progress segment for the current poll,
	// with a parallel slice preserving deterministic flush order (onOrder
	// dedupes so flush/restart churn within one long polling interval
	// cannot grow it unboundedly).
	merges  map[packet.FiveTuple]*packet.Segment
	order   []packet.FiveTuple
	onOrder map[packet.FiveTuple]bool

	// flushControl/Sealed/Restart/Poll count flushes by cause; Instrument
	// exports them as gro_flush_total.
	flushControl, flushSealed, flushRestart, flushPoll int64

	// tel is the run's telemetry sink; nil disables recording. hMergePkts
	// is a nil no-op when telemetry is off.
	tel        *telemetry.Sink
	hMergePkts *stats.QuantileSketch
}

// Instrument binds the instance to a telemetry sink; the testbed calls it
// at host construction. A nil sink disables recording.
func (g *Vanilla) Instrument(k *telemetry.Sink) {
	g.tel = k
	r := k.Reg()
	const name = "gro_flush_total"
	const help = "Vanilla GRO segments flushed, by cause."
	r.CounterOf(name, help, "reason", "control", &g.flushControl)
	r.CounterOf(name, help, "reason", "sealed", &g.flushSealed)
	r.CounterOf(name, help, "reason", "ooo-restart", &g.flushRestart)
	r.CounterOf(name, help, "reason", "poll", &g.flushPoll)
	g.hMergePkts = r.Histogram("gro_merge_pkts", "Packets per flushed GRO segment.")
}

// NewVanilla creates a standard GRO instance.
func NewVanilla(d Deliver) *Vanilla {
	return &Vanilla{
		deliver: d,
		merges:  map[packet.FiveTuple]*packet.Segment{},
		onOrder: map[packet.FiveTuple]bool{},
	}
}

// Receive merges one packet into its flow's in-progress segment.
func (g *Vanilla) Receive(p *packet.Packet) {
	g.c.Packets++
	if p.PassThrough() {
		// Control packets end any in-progress merge.
		g.flushFlow(p.Flow, "control", &g.flushControl)
		g.emit(g.pool.FromPacket(p))
		return
	}
	seg := g.merges[p.Flow]
	if seg == nil {
		g.start(p)
		return
	}
	if seg.CanAppend(p, units.TSOMaxBytes) {
		seg.Append(p)
		if seg.Sealed() || seg.Bytes+units.MSS > units.TSOMaxBytes {
			g.flushFlow(p.Flow, "sealed", &g.flushSealed)
		}
		return
	}
	// Out of sequence, incompatible, or size-limited: flush the old merge
	// and start fresh from this packet — exactly the behaviour whose CPU
	// cost collapses under reordering.
	g.flushFlow(p.Flow, "ooo-restart", &g.flushRestart)
	g.start(p)
}

// ReceiveBatch implements Offload. Vanilla's merge state is keyed per
// flow and flushed on the same per-packet triggers either way, so the
// batch form is the plain loop.
func (g *Vanilla) ReceiveBatch(batch []*packet.Packet) {
	for _, p := range batch {
		g.Receive(p)
	}
}

// UsePool makes the offload mint segments from pl (nil: heap allocation).
func (g *Vanilla) UsePool(pl *packet.SegPool) { g.pool = pl }

func (g *Vanilla) start(p *packet.Packet) {
	seg := g.pool.FromPacket(p)
	if seg.Sealed() {
		g.emit(seg)
		return
	}
	g.merges[p.Flow] = seg
	if !g.onOrder[p.Flow] {
		g.onOrder[p.Flow] = true
		g.order = append(g.order, p.Flow)
	}
}

// flushFlow delivers the flow's in-progress merge, counting it in *n and
// recording the flush reason (note must be a constant string).
func (g *Vanilla) flushFlow(ft packet.FiveTuple, note string, n *int64) {
	seg := g.merges[ft]
	if seg == nil {
		return
	}
	delete(g.merges, ft)
	*n++
	if g.tel != nil {
		g.tel.Event(telemetry.Event{Layer: telemetry.LayerGRO, Kind: telemetry.KindFlush,
			Flow: ft, Seq: seg.Seq, N: int64(seg.Pkts), Note: note})
	}
	if g.tel != nil {
		g.tel.Decide(&telemetry.Decision{Layer: telemetry.LayerGRO, Op: telemetry.OpFlush,
			Cause: note, Flow: ft, Seq: seg.Seq, EndSeq: seg.EndSeq(), N: int64(seg.Pkts)})
	}
	g.emit(seg)
}

func (g *Vanilla) emit(seg *packet.Segment) {
	g.c.Segments++
	if seg.Pkts > 1 {
		g.c.MergedPkts += int64(seg.Pkts)
	}
	g.hMergePkts.Observe(int64(seg.Pkts))
	g.deliver(seg)
}

// PollComplete implements Offload: standard GRO flushes all its packets and
// starts fresh from the next polling interval.
func (g *Vanilla) PollComplete() {
	for _, ft := range g.order {
		g.flushFlow(ft, "poll", &g.flushPoll)
		delete(g.onOrder, ft)
	}
	g.order = g.order[:0]
}

// Counters implements Offload.
func (g *Vanilla) Counters() Counters { return g.c }
