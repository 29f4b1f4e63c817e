package tcp

import (
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// ReceiverStats are cumulative receive-side counters; they supply the
// §5.1.1 statistics (segments seen, fraction out of order, ACKs sent).
type ReceiverStats struct {
	SegmentsIn  int64
	OOOSegments int64
	DupSegments int64
	AcksSent    int64
}

// Receiver is one TCP flow's receive side. It consumes (possibly merged)
// segments from the offload layer, reassembles the byte stream, delivers
// in-order bytes to the application, and acknowledges every segment —
// which is what makes segment multiplication expensive on a vanilla stack.
type Receiver struct {
	sim  *sim.Sim
	flow packet.FiveTuple // data-direction tuple
	pool *packet.Pool

	irs    uint32
	rcvNxt uint32
	ooo    []packet.Range // sorted, non-overlapping

	// sendAck transmits a constructed ACK packet (wired by the host).
	sendAck func(p *packet.Packet)

	// OnDeliver, when non-nil, observes every in-order delivery with the
	// cumulative byte count (RPC completion tracking hooks in here).
	OnDeliver func(cumBytes int64)

	Stats ReceiverStats

	// tel is the run's telemetry sink; nil disables recording.
	tel *telemetry.Sink
}

// NewReceiver creates a receiver for the data-direction flow; ACKs are
// emitted through sendAck on the reverse tuple.
func NewReceiver(s *sim.Sim, flow packet.FiveTuple, sendAck func(p *packet.Packet)) *Receiver {
	r := &Receiver{sim: s, flow: flow, pool: packet.PoolFromSim(s), irs: 1, rcvNxt: 1, sendAck: sendAck}
	if k := telemetry.FromSim(s); k != nil {
		r.tel = k
		reg := k.Reg()
		reg.CounterOf("tcp_segments_in_total", "Segments reaching TCP receivers.", "", "", &r.Stats.SegmentsIn)
		reg.CounterOf("tcp_ooo_segments_total", "Segments reaching TCP out of cumulative order.", "", "", &r.Stats.OOOSegments)
		reg.CounterOf("tcp_acks_sent_total", "Acknowledgments emitted by receivers.", "", "", &r.Stats.AcksSent)
	}
	return r
}

// Flow returns the data-direction tuple this receiver consumes.
func (r *Receiver) Flow() packet.FiveTuple { return r.flow }

// Delivered returns the cumulative in-order bytes handed to the app.
func (r *Receiver) Delivered() int64 { return int64(r.rcvNxt - r.irs) }

// OnSegment consumes one segment from the stack.
func (r *Receiver) OnSegment(seg *packet.Segment) {
	r.Stats.SegmentsIn++
	progressed := false
	ooo := false
	dup := true
	for _, rng := range seg.PayloadRanges() {
		switch r.ingest(rng) {
		case ingestAdvance:
			progressed = true
			dup = false
		case ingestOOO:
			ooo = true
			dup = false
		case ingestDup:
		}
	}
	if ooo && !progressed {
		r.Stats.OOOSegments++
		r.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpOOO,
			Flow: r.flow, Seq: seg.Seq, N: int64(seg.Bytes)})
		seg.OOO = true
	}
	if dup && seg.Bytes > 0 {
		r.Stats.DupSegments++
	}
	if progressed && r.OnDeliver != nil {
		r.OnDeliver(r.Delivered())
	}
	// One ACK per segment: in-order progress acks the new rcvNxt;
	// anything else is a duplicate ACK that the sender counts.
	r.ack(seg.CE)
}

type ingestResult uint8

const (
	ingestAdvance ingestResult = iota
	ingestOOO
	ingestDup
)

// ingest merges one payload range into the reassembly state.
func (r *Receiver) ingest(rng packet.Range) ingestResult {
	if rng.Len <= 0 {
		return ingestDup
	}
	end := rng.Seq + uint32(rng.Len)
	if packet.SeqLEQ(end, r.rcvNxt) {
		return ingestDup // entirely old
	}
	if packet.SeqLEQ(rng.Seq, r.rcvNxt) {
		// Advances the left edge; absorb and pull any now-contiguous
		// buffered ranges.
		r.rcvNxt = end
		r.drainContiguous()
		return ingestAdvance
	}
	// Out of order: buffer.
	r.bufferRange(rng)
	return ingestOOO
}

// drainContiguous advances rcvNxt through buffered ranges it now reaches.
func (r *Receiver) drainContiguous() {
	i := 0
	for i < len(r.ooo) {
		rng := r.ooo[i]
		if packet.SeqLess(r.rcvNxt, rng.Seq) {
			break
		}
		end := rng.Seq + uint32(rng.Len)
		if packet.SeqLess(r.rcvNxt, end) {
			r.rcvNxt = end
		}
		i++
	}
	if i > 0 {
		r.ooo = append(r.ooo[:0], r.ooo[i:]...)
	}
}

// bufferRange inserts an out-of-order range, keeping the list sorted and
// coalesced.
func (r *Receiver) bufferRange(rng packet.Range) {
	// Find insert position.
	lo, hi := 0, len(r.ooo)
	for lo < hi {
		mid := (lo + hi) / 2
		if packet.SeqLess(r.ooo[mid].Seq, rng.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.ooo = append(r.ooo, packet.Range{})
	copy(r.ooo[lo+1:], r.ooo[lo:])
	r.ooo[lo] = rng
	// Coalesce around lo.
	r.coalesceAt(lo)
	if lo > 0 {
		r.coalesceAt(lo - 1)
	}
}

// coalesceAt merges overlapping/adjacent ranges starting at index i.
func (r *Receiver) coalesceAt(i int) {
	for i+1 < len(r.ooo) {
		a, b := r.ooo[i], r.ooo[i+1]
		aEnd := a.Seq + uint32(a.Len)
		if packet.SeqLess(aEnd, b.Seq) {
			return
		}
		bEnd := b.Seq + uint32(b.Len)
		end := aEnd
		if packet.SeqLess(end, bEnd) {
			end = bEnd
		}
		r.ooo[i].Len = int(end - a.Seq)
		r.ooo = append(r.ooo[:i+1], r.ooo[i+2:]...)
	}
}

// ack emits one cumulative acknowledgment; ce echoes congestion marks.
func (r *Receiver) ack(ce bool) {
	r.Stats.AcksSent++
	p := r.pool.Get()
	p.Flow = r.flow.Reverse()
	p.Flags = packet.FlagACK
	p.AckSeq = r.rcvNxt
	packet.Stamp(&p.Stamps, packet.HopTCPSend, r.sim.Now())
	if ce {
		p.Flags |= packet.FlagECE
	}
	if len(r.ooo) > 0 {
		p.SACKStart = r.ooo[0].Seq
		p.SACKEnd = r.ooo[0].Seq + uint32(r.ooo[0].Len)
		// ACKs carrying SACK evidence are the loss signals the sender's
		// recovery heuristics run on — worth a timeline event each.
		r.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpAck,
			Flow: r.flow, Seq: r.rcvNxt, N: int64(p.SACKEnd - p.SACKStart), Note: "sack"})
	}
	r.sendAck(p)
}

// OOORanges returns the buffered out-of-order byte count (diagnostics).
func (r *Receiver) OOORanges() int { return len(r.ooo) }
