// Package msgt is a minimal message-oriented reliable transport in the
// spirit of SCTP's ordered delivery service: fixed-size records carry
// transmission sequence numbers (TSNs), the receiver delivers records in
// TSN order and acknowledges cumulatively, and the sender recovers lost
// records via duplicate cumulative ACKs and a retransmission timer.
//
// The paper notes (§4) that Juggler's "design principles hold for other
// transports such as SCTP that impose packet order as well". This package
// demonstrates it: records map TSN -> byte sequence (TSN * RecordSize), so
// the unchanged Juggler/GRO layer reorders and batches msgt traffic
// exactly as it does TCP — and a vanilla stack misreads msgt reordering as
// loss just like TCP does.
package msgt

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// RecordSize is the fixed record payload (one MSS, so records are packets).
const RecordSize = units.MSS

// tsnToSeq maps a TSN to its byte-sequence number (TSN 0 at seq 1).
func tsnToSeq(tsn uint32) uint32 { return 1 + tsn*RecordSize }

// seqToTSN inverts tsnToSeq for record-aligned sequences.
func seqToTSN(seq uint32) uint32 { return (seq - 1) / RecordSize }

// SenderStats count sender events.
type SenderStats struct {
	Sent        int64
	Retransmits int64
	FastRecover int64
	Timeouts    int64
	AcksIn      int64
	DupAcks     int64
}

// Sender streams records as fast as its window allows.
type Sender struct {
	sim  *sim.Sim
	flow packet.FiveTuple
	out  func(*packet.Packet)
	pool *packet.Pool

	// Window is the record-count flight limit.
	Window int

	nextTSN uint32 // next new TSN to send
	cumAck  uint32 // TSNs below this are acknowledged
	dupAcks int

	rto *sim.Timer

	Stats SenderStats
}

// NewSender creates a sender emitting records on flow through out.
func NewSender(s *sim.Sim, flow packet.FiveTuple, window int, out func(*packet.Packet)) *Sender {
	if window <= 0 {
		panic("msgt: non-positive window")
	}
	snd := &Sender{sim: s, flow: flow, out: out, pool: packet.PoolFromSim(s), Window: window}
	snd.rto = sim.NewTimer(s, snd.onRTO)
	return snd
}

// Start begins streaming.
func (s *Sender) Start() { s.fill() }

// fill sends new records up to the window.
func (s *Sender) fill() {
	for s.nextTSN-s.cumAck < uint32(s.Window) {
		s.send(s.nextTSN)
		s.nextTSN++
	}
	if !s.rto.Pending() && s.nextTSN != s.cumAck {
		s.rto.Reset(s.rtoInterval())
	}
}

func (s *Sender) send(tsn uint32) {
	s.Stats.Sent++
	p := s.pool.Get()
	p.Flow = s.flow
	p.Seq = tsnToSeq(tsn)
	p.PayloadLen = RecordSize
	p.Flags = packet.FlagACK
	p.SentAt = s.sim.Now()
	s.out(p)
}

// OnAck processes a cumulative acknowledgment (AckSeq = next expected TSN,
// carried in TSN space).
func (s *Sender) OnAck(ackTSN uint32) {
	s.Stats.AcksIn++
	if packet.SeqLess(s.cumAck, ackTSN) && packet.SeqLEQ(ackTSN, s.nextTSN) {
		s.cumAck = ackTSN
		s.dupAcks = 0
		if s.cumAck == s.nextTSN {
			s.rto.Stop()
		} else {
			s.rto.Reset(s.rtoInterval())
		}
		s.fill()
		return
	}
	if ackTSN == s.cumAck && s.nextTSN != s.cumAck {
		s.Stats.DupAcks++
		s.dupAcks++
		if s.dupAcks == 3 {
			// Fast recover: re-send the missing record.
			s.Stats.FastRecover++
			s.Stats.Retransmits++
			s.send(s.cumAck)
		}
	}
}

func (s *Sender) onRTO() {
	if s.cumAck == s.nextTSN {
		return
	}
	s.Stats.Timeouts++
	s.Stats.Retransmits++
	s.send(s.cumAck)
	s.rto.Reset(s.rtoInterval())
}

func (s *Sender) rtoInterval() time.Duration { return 5 * time.Millisecond }

// ReceiverStats count receiver events.
type ReceiverStats struct {
	SegmentsIn  int64
	OOOSegments int64
	AcksSent    int64
	Duplicates  int64
}

// Receiver reassembles records and delivers them in TSN order.
type Receiver struct {
	sim     *sim.Sim
	flow    packet.FiveTuple
	sendAck func(ackTSN uint32)

	cumTSN uint32 // next expected TSN
	ooo    map[uint32]bool

	// OnRecord, when non-nil, fires per record delivered in order.
	OnRecord func(tsn uint32)

	Stats ReceiverStats
}

// NewReceiver creates a receiver; acknowledgments flow through sendAck.
func NewReceiver(s *sim.Sim, flow packet.FiveTuple, sendAck func(ackTSN uint32)) *Receiver {
	return &Receiver{sim: s, flow: flow, sendAck: sendAck, ooo: map[uint32]bool{}}
}

// Delivered returns the count of in-order records delivered.
func (r *Receiver) Delivered() int64 { return int64(r.cumTSN) }

// OnSegment consumes one (possibly GRO-merged) segment from the offload
// layer.
func (r *Receiver) OnSegment(seg *packet.Segment) {
	r.Stats.SegmentsIn++
	progressed := false
	sawOOO := false
	for _, rng := range seg.PayloadRanges() {
		for off := 0; off < rng.Len; off += RecordSize {
			tsn := seqToTSN(rng.Seq + uint32(off))
			switch {
			case tsn == r.cumTSN:
				r.deliver()
				progressed = true
			case packet.SeqLess(tsn, r.cumTSN):
				r.Stats.Duplicates++
			default:
				if !r.ooo[tsn] {
					r.ooo[tsn] = true
					sawOOO = true
				} else {
					r.Stats.Duplicates++
				}
			}
		}
	}
	if sawOOO && !progressed {
		r.Stats.OOOSegments++
	}
	r.Stats.AcksSent++
	r.sendAck(r.cumTSN)
}

// deliver emits cumTSN and drains any now-contiguous buffered records.
func (r *Receiver) deliver() {
	for {
		if r.OnRecord != nil {
			r.OnRecord(r.cumTSN)
		}
		r.cumTSN++
		if !r.ooo[r.cumTSN] {
			return
		}
		delete(r.ooo, r.cumTSN)
	}
}
