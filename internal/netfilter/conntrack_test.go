package netfilter

import (
	"testing"
	"testing/quick"

	"juggler/internal/packet"
	"juggler/internal/units"
)

func flowN(n int) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(n), DstPort: 80, Proto: packet.ProtoTCP}
}

func seg(ft packet.FiveTuple, seqMSS, nMSS int) *packet.Segment {
	return &packet.Segment{Flow: ft, Seq: uint32(seqMSS * units.MSS), Bytes: nMSS * units.MSS, Pkts: nMSS}
}

func TestInOrderStreamAccepted(t *testing.T) {
	ct := New(Config{})
	ft := flowN(1)
	for i := 0; i < 10; i++ {
		if v := ct.Inspect(seg(ft, i, 1)); v != VerdictAccept {
			t.Fatalf("segment %d: verdict %v", i, v)
		}
	}
	if ct.Stats.Invalid != 0 || ct.Stats.Accepted != 10 {
		t.Fatalf("stats = %+v", ct.Stats)
	}
}

func TestOutOfOrderInvalid(t *testing.T) {
	ct := New(Config{})
	ft := flowN(1)
	ct.Inspect(seg(ft, 0, 1))
	if v := ct.Inspect(seg(ft, 5, 1)); v != VerdictInvalid {
		t.Fatalf("hole jump should be INVALID, got %v", v)
	}
	// Non-strict tracking adopts the new edge: the continuation is fine.
	if v := ct.Inspect(seg(ft, 6, 1)); v != VerdictAccept {
		t.Fatalf("continuation after jump should be accepted, got %v", v)
	}
	// The late hole-filler overlaps delivered space: a retransmission.
	if v := ct.Inspect(seg(ft, 1, 1)); v != VerdictAccept {
		t.Fatalf("retransmission should be accepted, got %v", v)
	}
}

// TestSequenceWraparound: window tracking compares sequence numbers in
// serial arithmetic, so a flow crossing 2^32 stays in window, a
// retransmission from before the wrap is accepted, and a hole that spans
// the wrap is still a hole.
func TestSequenceWraparound(t *testing.T) {
	ct := New(Config{})
	const start = 1<<32 - 2*units.MSS
	at := func(ft packet.FiveTuple, i int) *packet.Segment {
		return &packet.Segment{Flow: ft, Seq: uint32(start + i*units.MSS), Bytes: units.MSS, Pkts: 1}
	}
	ft := flowN(1)
	for i := 0; i < 5; i++ { // segment 2 starts at sequence 0
		if v := ct.Inspect(at(ft, i)); v != VerdictAccept {
			t.Fatalf("in-order segment %d across the wrap: verdict %v", i, v)
		}
	}
	for i := 0; i < 2; i++ {
		if v := ct.Inspect(at(ft, i)); v != VerdictAccept {
			t.Fatalf("retransmission of pre-wrap segment %d: verdict %v", i, v)
		}
	}
	jump := flowN(2)
	ct.Inspect(at(jump, 0))
	if v := ct.Inspect(at(jump, 4)); v != VerdictInvalid {
		t.Fatalf("jump across the wrap: verdict %v, want INVALID", v)
	}
	if ct.Stats.Invalid != 1 {
		t.Fatalf("invalid = %d, want 1", ct.Stats.Invalid)
	}
}

func TestPureAcksNeverInvalid(t *testing.T) {
	ct := New(Config{})
	ft := flowN(1)
	ack := &packet.Segment{Flow: ft, Flags: packet.FlagACK, AckSeq: 999}
	for i := 0; i < 5; i++ {
		if ct.Inspect(ack) != VerdictAccept {
			t.Fatal("pure ACKs must always be accepted")
		}
	}
}

func TestStrictModeDrops(t *testing.T) {
	ct := New(Config{Strict: true})
	ft := flowN(1)
	ct.Inspect(seg(ft, 0, 1))
	v := ct.Inspect(seg(ft, 9, 1))
	if !ct.ShouldDrop(v) {
		t.Fatal("strict mode should drop INVALID segments")
	}
	if ct.Stats.Dropped != 1 {
		t.Fatalf("dropped = %d", ct.Stats.Dropped)
	}
	lax := New(Config{})
	if lax.ShouldDrop(VerdictInvalid) {
		t.Fatal("non-strict mode must never drop")
	}
}

func TestTableBoundAndLRURecycling(t *testing.T) {
	ct := New(Config{})
	for i := 0; i < 4096+6; i++ {
		ct.Inspect(seg(flowN(i), 0, 1))
	}
	if ct.Len() != 4096 {
		t.Fatalf("table size = %d, want 4096", ct.Len())
	}
	if ct.Stats.Recycled != 6 {
		t.Fatalf("recycled = %d, want 6", ct.Stats.Recycled)
	}
	// Most recent flows survive.
	before := ct.Stats.Created
	ct.Inspect(seg(flowN(4101), 1, 1))
	if ct.Stats.Created != before {
		t.Fatal("recent flow should still be tracked")
	}
	// Touching a flow protects it from recycling: flow 6 is the LRU entry
	// until it is touched.
	ct.Inspect(seg(flowN(6), 1, 1))
	ct.Inspect(seg(flowN(5000), 0, 1)) // evicts LRU, which is now flow 7
	before = ct.Stats.Created
	ct.Inspect(seg(flowN(6), 2, 1))
	if ct.Stats.Created != before {
		t.Fatal("recently touched flow was recycled")
	}
}

// Property: an in-order stream of arbitrary segment sizes is never invalid,
// regardless of interleaving across flows.
func TestPropertyInOrderNeverInvalid(t *testing.T) {
	f := func(sizes []uint8, flows uint8) bool {
		nf := int(flows)%4 + 1
		ct := New(Config{})
		next := make([]int, nf)
		for i, raw := range sizes {
			fl := i % nf
			n := int(raw)%4 + 1
			s := seg(flowN(fl), next[fl], n)
			if ct.Inspect(s) != VerdictAccept {
				return false
			}
			next[fl] += n
		}
		return ct.Stats.Invalid == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: table never exceeds its bound. Each id opens a run of 256
// flows, so a few dozen ids overflow the 4096-entry table.
func TestPropertyTableBounded(t *testing.T) {
	f := func(ids []uint16) bool {
		ct := New(Config{})
		for _, id := range ids {
			for k := 0; k < 256; k++ {
				ct.Inspect(seg(flowN(int(id)+k), 0, 1))
				if ct.Len() > 4096 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
