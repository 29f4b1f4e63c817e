package gro

import (
	"juggler/internal/packet"
	"juggler/internal/units"
)

// LinkedList is the §3.1 alternative design: batch packets of a flow within
// a poll regardless of order by chaining their sk_buffs in a linked list
// (Figure 3, right). It avoids the segment explosion of vanilla GRO under
// reordering, but every chained sk_buff costs the stack an extra cache miss
// on traversal — the paper measured ~50% more CPU on in-order traffic — and
// the receiver still sees out-of-order byte ranges.
type LinkedList struct {
	deliver Deliver
	pool    *packet.SegPool
	c       Counters

	merges  map[packet.FiveTuple]*packet.Segment
	order   []packet.FiveTuple
	onOrder map[packet.FiveTuple]bool
}

// UsePool makes the offload mint segments from pl (nil: heap allocation).
func (g *LinkedList) UsePool(pl *packet.SegPool) { g.pool = pl }

// NewLinkedList creates the linked-list batching offload.
func NewLinkedList(d Deliver) *LinkedList {
	return &LinkedList{
		deliver: d,
		merges:  map[packet.FiveTuple]*packet.Segment{},
		onOrder: map[packet.FiveTuple]bool{},
	}
}

// Receive chains one packet onto its flow's in-progress segment.
func (g *LinkedList) Receive(p *packet.Packet) {
	g.c.Packets++
	if p.PassThrough() {
		g.flushFlow(p.Flow)
		g.emit(g.pool.FromPacket(p))
		return
	}
	seg := g.merges[p.Flow]
	if seg == nil {
		seg = g.pool.FromPacket(p)
		seg.Kind = packet.MergeLinkedList
		seg.Ranges = []packet.Range{{Seq: p.Seq, Len: p.PayloadLen}}
		g.merges[p.Flow] = seg
		if !g.onOrder[p.Flow] {
			g.onOrder[p.Flow] = true
			g.order = append(g.order, p.Flow)
		}
		return
	}
	if seg.Bytes+p.PayloadLen > units.TSOMaxBytes {
		g.flushFlow(p.Flow)
		g.Receive(p)
		g.c.Packets-- // the recursive call re-counted this packet
		return
	}
	// Chain regardless of order: payload accounting plus a new range (or
	// extension of the previous one when contiguous).
	seg.Bytes += p.PayloadLen
	seg.Pkts++
	seg.Flags |= p.Flags
	seg.AckSeq = p.AckSeq
	if p.SentAt < seg.FirstSentAt {
		seg.FirstSentAt = p.SentAt
	}
	if p.SentAt > seg.LastSentAt {
		seg.LastSentAt = p.SentAt
	}
	last := &seg.Ranges[len(seg.Ranges)-1]
	if last.Seq+uint32(last.Len) == p.Seq {
		last.Len += p.PayloadLen
	} else {
		seg.Ranges = append(seg.Ranges, packet.Range{Seq: p.Seq, Len: p.PayloadLen})
	}
	if packet.SeqLess(p.Seq, seg.Seq) {
		seg.Seq = p.Seq
	}
}

// ReceiveBatch implements Offload: chaining is already per-flow constant
// work, so the batch form is the plain loop.
func (g *LinkedList) ReceiveBatch(batch []*packet.Packet) {
	for _, p := range batch {
		g.Receive(p)
	}
}

func (g *LinkedList) flushFlow(ft packet.FiveTuple) {
	seg := g.merges[ft]
	if seg == nil {
		return
	}
	delete(g.merges, ft)
	g.emit(seg)
}

func (g *LinkedList) emit(seg *packet.Segment) {
	g.c.Segments++
	if seg.Pkts > 1 {
		g.c.MergedPkts += int64(seg.Pkts)
	}
	g.deliver(seg)
}

// PollComplete implements Offload.
func (g *LinkedList) PollComplete() {
	for _, ft := range g.order {
		g.flushFlow(ft)
		delete(g.onOrder, ft)
	}
	g.order = g.order[:0]
}

// Counters implements Offload.
func (g *LinkedList) Counters() Counters { return g.c }
