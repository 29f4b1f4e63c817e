package packet

import (
	"fmt"

	"juggler/internal/sim"
)

// MergeKind distinguishes the two physical representations of a merged
// receive-offload segment discussed in §3.1 of the paper (Figure 3).
type MergeKind uint8

const (
	// MergeFrags is today's GRO representation: contiguous payloads are
	// appended to the lead sk_buff's frags[] array. Cheap to traverse.
	MergeFrags MergeKind = iota
	// MergeLinkedList chains non-contiguous sk_buffs in a linked list.
	// Traversal incurs extra cache misses; the CPU model charges for them.
	MergeLinkedList
)

// Segment is a batch of packets merged by the receive-offload layer and
// delivered to the network stack as one unit. With plain GRO a segment is
// always contiguous in sequence space; the linked-list variant may not be.
type Segment struct {
	Flow  FiveTuple
	Seq   uint32 // sequence of first byte
	Bytes int    // total payload bytes
	// Pkts is the number of wire packets merged into this segment; it is
	// the "batching extent" statistic of Figure 12 (MTUs per segment).
	Pkts int
	// Kind records the merge representation for CPU accounting.
	Kind MergeKind

	Flags  Flags
	AckSeq uint32
	OptSig uint32
	CE     bool

	// SACKStart/SACKEnd carry the first selective-ack block of an ACK
	// packet (zero when absent); senders use it to size hole retransmits.
	SACKStart, SACKEnd uint32

	// FirstSentAt/LastSentAt bracket the send timestamps of merged packets
	// for latency accounting.
	FirstSentAt, LastSentAt sim.Time

	// OOO marks a segment that was delivered out of cumulative order as
	// seen by the receiver TCP (for the §5.1.1 "40% out of order" stat).
	// It is set by the TCP receiver, not by GRO.
	OOO bool

	// Ranges carries the possibly discontiguous payload ranges of a
	// linked-list-merged segment (MergeLinkedList). It is nil for normal
	// segments, whose payload is the single range [Seq, Seq+Bytes).
	Ranges []Range

	// Stamps are the hop timestamps of the segment's lead packet — the
	// packet that opened the merge (FromPacket copies them). Append and
	// Prepend deliberately leave them alone: forensics attributes one
	// delivery per segment, pinned to the packet that created it, so per-
	// layer sojourn sums telescope exactly to end-to-end latency.
	Stamps [NumHops]sim.Time

	// SkipStamps mirrors the lead packet's stamp-sampling verdict: a
	// segment opened by an unsampled packet carries zero Stamps and is
	// skipped by delivery stamping, attribution and the per-flush
	// forensic records — the segment-level face of 1-in-N sampling.
	SkipStamps bool

	// next links the segment into its SegPool's free list while it is
	// recycled; it is nil whenever the segment is in use. It fills the
	// struct's tail up to the 176-byte size class.
	next *Segment
}

// Range is one contiguous payload run inside a linked-list segment.
type Range struct {
	Seq uint32
	Len int
}

// PayloadRanges returns the segment's payload runs: the explicit Ranges for
// linked-list segments, or the implied single range otherwise.
func (s *Segment) PayloadRanges() []Range {
	if s.Ranges != nil {
		return s.Ranges
	}
	if s.Bytes == 0 {
		return nil
	}
	return []Range{{Seq: s.Seq, Len: s.Bytes}}
}

// EndSeq returns the sequence number just past the segment's payload.
func (s *Segment) EndSeq() uint32 { return s.Seq + uint32(s.Bytes) }

// String summarizes the segment for traces.
func (s *Segment) String() string {
	return fmt.Sprintf("seg %v seq=%d bytes=%d pkts=%d", s.Flow, s.Seq, s.Bytes, s.Pkts)
}

// FromPacket builds a single-packet segment preserving the fields GRO
// carries upward.
func FromPacket(p *Packet) *Segment {
	return &Segment{
		Flow: p.Flow, Seq: p.Seq, Bytes: p.PayloadLen, Pkts: 1,
		Flags: p.Flags, AckSeq: p.AckSeq, OptSig: p.OptSig, CE: p.CE,
		SACKStart: p.SACKStart, SACKEnd: p.SACKEnd,
		FirstSentAt: p.SentAt, LastSentAt: p.SentAt,
		Stamps: p.Stamps, SkipStamps: p.SkipStamps,
	}
}

// Sealed reports whether the segment may accept no further tail appends:
// a PSH, URG or FIN packet terminates a merge (its semantics apply to the
// segment end, so nothing may follow it inside the same segment).
func (s *Segment) Sealed() bool {
	return s.Flags.Has(FlagPSH) || s.Flags.Has(FlagURG) || s.Flags.Has(FlagFIN)
}

// PassThrough reports whether a packet must bypass offload merging
// entirely: pure ACKs (no payload) and connection-management packets.
func (p *Packet) PassThrough() bool {
	return p.PayloadLen == 0 || p.Flags.Has(FlagSYN) || p.Flags.Has(FlagRST)
}

// CanAppend reports whether packet p can be merged at the tail of s under
// standard GRO rules: contiguous sequence, identical options signature and
// ECN state, the segment not already sealed by a terminating flag, and the
// result under the max segment size. A PSH/URG/FIN packet may be appended —
// it seals the segment (Append ORs the flags in).
func (s *Segment) CanAppend(p *Packet, maxBytes int) bool {
	if p.Flow != s.Flow {
		return false
	}
	if s.Sealed() {
		return false
	}
	if p.Seq != s.EndSeq() {
		return false
	}
	if p.OptSig != s.OptSig || p.CE != s.CE {
		return false
	}
	if p.PassThrough() {
		return false
	}
	return s.Bytes+p.PayloadLen <= maxBytes
}

// Append merges p at the tail of s. Callers must have checked CanAppend
// (except that flag/size policy may be relaxed by Juggler's merge, which
// performs its own checks).
func (s *Segment) Append(p *Packet) {
	s.Bytes += p.PayloadLen
	s.Pkts++
	s.AckSeq = p.AckSeq
	s.Flags |= p.Flags
	if p.SentAt < s.FirstSentAt {
		s.FirstSentAt = p.SentAt
	}
	if p.SentAt > s.LastSentAt {
		s.LastSentAt = p.SentAt
	}
}

// CanPrepend reports whether packet p can be merged at the head of s:
// contiguous, compatible, unflagged (flag semantics would be lost
// mid-segment), and within the size limit.
func (s *Segment) CanPrepend(p *Packet, maxBytes int) bool {
	if p.Flow != s.Flow || p.PassThrough() {
		return false
	}
	if p.Flags.Has(FlagPSH) || p.Flags.Has(FlagURG) || p.Flags.Has(FlagFIN) {
		return false
	}
	if p.EndSeq() != s.Seq {
		return false
	}
	if p.OptSig != s.OptSig || p.CE != s.CE {
		return false
	}
	return s.Bytes+p.PayloadLen <= maxBytes
}

// Prepend merges p at the head of s (used by Juggler when a hole before the
// segment is filled).
func (s *Segment) Prepend(p *Packet) {
	s.Seq = p.Seq
	s.Bytes += p.PayloadLen
	s.Pkts++
	if p.SentAt < s.FirstSentAt {
		s.FirstSentAt = p.SentAt
	}
	if p.SentAt > s.LastSentAt {
		s.LastSentAt = p.SentAt
	}
}
