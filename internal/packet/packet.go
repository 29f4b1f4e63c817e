// Package packet defines the wire-level objects that flow through the
// simulated stack: TCP/IP packets, five-tuple flow keys, and the merged
// segments produced by receive offload (GRO).
//
// Packets carry only the fields the stack's algorithms inspect: sequence
// and acknowledgment numbers, flags, priority, ECN marks, and an opaque
// signature standing in for the TCP options block. Payload bytes are
// represented by a length, never materialized — the simulation is about
// protocol and CPU behaviour, not data movement.
package packet

import (
	"fmt"

	"juggler/internal/sim"
	"juggler/internal/units"
)

// Proto identifies the transport protocol of a flow.
type Proto uint8

// Transport protocol numbers (IANA).
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// FiveTuple is the canonical flow key used by RSS hashing and by the GRO /
// Juggler flow tables.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse returns the five-tuple of the opposite direction (used to route
// ACKs back to the sender).
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// String formats the tuple as "src:port>dst:port/proto".
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%d:%d>%d:%d/%d", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
}

// Hash mixes the five-tuple with a salt into a well-distributed 32-bit
// value. It is used for RSS receive-queue selection and ECMP path
// selection. The implementation is an FNV-1a over the tuple fields, which
// is deterministic across runs for a fixed salt.
func (ft FiveTuple) Hash(salt uint32) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset) ^ salt
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(ft.SrcIP)
	mix(ft.DstIP)
	mix(uint32(ft.SrcPort)<<16 | uint32(ft.DstPort))
	mix(uint32(ft.Proto))
	return h
}

// Flags is the TCP flag set carried by a packet.
type Flags uint8

// TCP flags relevant to GRO flush decisions and connection setup.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagPSH
	FlagURG
	FlagFIN
	FlagRST
	// FlagECE is the ECN-Echo flag carried on ACKs back to the sender.
	FlagECE
)

// Has reports whether all flags in f2 are set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders the flag set compactly, e.g. "SYN|ACK".
func (f Flags) String() string {
	names := []struct {
		bit  Flags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagPSH, "PSH"},
		{FlagURG, "URG"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagECE, "ECE"},
	}
	s := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

// Priority is the network scheduling class of a packet. Lower values are
// served first by strict-priority queues (0 = highest priority).
type Priority uint8

// Priority levels used by the bandwidth-guarantee experiments (§2.1): the
// paper uses exactly two classes.
const (
	PrioHigh Priority = 0
	PrioLow  Priority = 1
	// NumPriorities bounds the priority space for queue arrays.
	NumPriorities = 2
)

// Packet is one IP packet on the wire. Packets are created by the TCP
// sender / NIC TSO engine and mutated only by annotation fields (timestamps,
// ECN) as they traverse the fabric.
type Packet struct {
	Flow FiveTuple

	// Seq is the TCP sequence number of the first payload byte.
	Seq uint32
	// PayloadLen is the TCP payload length in bytes.
	PayloadLen int
	// AckSeq is the cumulative acknowledgment (valid when FlagACK set).
	AckSeq uint32
	Flags  Flags

	// OptSig is an opaque signature of the TCP options block; GRO may only
	// merge packets whose signatures match (Table 2, row 4).
	OptSig uint32

	// Priority selects the switch queue class.
	Priority Priority

	// TSOID identifies the TSO super-segment this packet was segmented
	// from; per-TSO load balancing keys on it, and burstiness statistics
	// use it.
	TSOID uint64

	// CE is the ECN Congestion Experienced mark.
	CE bool

	// SentAt is the time the packet left the sender NIC (for delay stats).
	SentAt sim.Time

	// FlowHash is the salt-0 five-tuple hash, stamped once by the NIC RSS
	// stage on receive so per-flow layers above it (the Juggler gro_table)
	// never rehash the tuple per packet. Zero means "not stamped";
	// consumers fall back to computing Flow.Hash(0) themselves, which is
	// consistent because a stamped hash always equals Flow.Hash(0).
	FlowHash uint32

	// SACKBlock optionally carries one (start,end) selective-ack range on
	// ACK packets; zero when absent. Kept minimal: the simplified receiver
	// reports only the most recent block, which is all the sender's
	// fast-retransmit heuristic needs.
	SACKStart, SACKEnd uint32

	// Stamps holds the per-hop timestamps of the forensics layer, indexed
	// by Hop. Zero means "not stamped" — attribution starts at the first
	// non-zero stamp, so partially stamped packets (replay injection,
	// locally generated ACKs) still attribute correctly. Pool recycling
	// zeroes the whole struct, which resets these for free.
	Stamps [NumHops]sim.Time

	// SkipStamps marks a packet the run's StampSampler excluded from hop
	// stamping (1-in-N sampling, decided once at NIC TX). Downstream
	// stamp sites honor it via StampPkt, so an unsampled packet carries
	// all-zero Stamps and drops out of attribution and per-packet
	// forensics with no per-hop branching beyond this flag. False when no
	// sampler is attached; pool recycling zeroes it with the struct.
	SkipStamps bool
}

// WireLen returns the packet's size on the wire in IP bytes: headers plus
// payload. ACK-only packets are header-only.
func (p *Packet) WireLen() int {
	n := 40 + p.PayloadLen // IP (20) + TCP (20) headers
	if n > units.MTU {
		// TSO must have segmented already; treat as error in callers.
		return n
	}
	return n
}

// EndSeq returns the sequence number just past this packet's payload.
func (p *Packet) EndSeq() uint32 { return p.Seq + uint32(p.PayloadLen) }

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.PayloadLen > 0 }

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%v seq=%d len=%d %v prio=%d", p.Flow, p.Seq, p.PayloadLen, p.Flags, p.Priority)
}

// SeqLess reports whether a < b in 32-bit TCP sequence space (RFC 1323
// serial-number arithmetic). All ordering comparisons in the stack go
// through SeqLess/SeqLEQ so wraparound is handled uniformly.
func SeqLess(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqMax returns the later of a and b in sequence space.
func SeqMax(a, b uint32) uint32 {
	if SeqLess(a, b) {
		return b
	}
	return a
}

// SeqMin returns the earlier of a and b in sequence space.
func SeqMin(a, b uint32) uint32 {
	if SeqLess(a, b) {
		return a
	}
	return b
}
