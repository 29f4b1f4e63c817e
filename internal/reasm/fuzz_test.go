package reasm

import (
	"testing"

	"juggler/internal/packet"
	"juggler/internal/units"
)

// fuzzBases are the seed corpus's base sequence numbers: the old fixed
// base 1, then two that make every seed program straddle the 2^32 wrap.
var fuzzBases = []uint32{1, 1<<32 - 4*units.MSS, 1<<32 - 1}

// FuzzOOOQueue checks the sorted-queue invariants under arbitrary insert
// orders, including overlapping-by-construction slots, from a
// fuzzer-chosen base sequence number.
func FuzzOOOQueue(f *testing.F) {
	for _, base := range fuzzBases {
		f.Add(base, []byte{3, 5, 2, 1, 4})
		f.Add(base, []byte{0, 0, 1, 1, 2, 2})
	}
	f.Fuzz(func(t *testing.T, base uint32, slots []byte) {
		var q SegList
		seen := map[byte]bool{}
		bytes := 0
		for _, slot := range slots {
			slot %= 64
			res, _ := q.Insert(&packet.Packet{
				Flow: testFlow, Seq: base + uint32(slot)*units.MSS,
				PayloadLen: units.MSS, Flags: packet.FlagACK,
			})
			if seen[slot] != (res == InsDuplicate) {
				t.Fatalf("slot %d: duplicate detection wrong (seen=%v res=%v)", slot, seen[slot], res)
			}
			if !seen[slot] {
				bytes += units.MSS
			}
			seen[slot] = true
			for i := 1; i < len(q.segs); i++ {
				a, b := q.segs[i-1], q.segs[i]
				if !packet.SeqLess(a.Seq, b.Seq) || packet.SeqLess(b.Seq, a.EndSeq()) {
					t.Fatalf("queue order/overlap violated at %d", i)
				}
			}
		}
		if q.Bytes() != bytes {
			t.Fatalf("queue holds %d bytes, want %d", q.Bytes(), bytes)
		}
	})
}

// FuzzSegList is a differential fuzz against a naive map-of-bytes
// reference. A packet program — inserts of full, partial, and flagged
// records at arbitrary slots from a fuzzer-chosen base sequence number,
// interleaved with head pops — drives one SegList. The queue "delivers" a
// packet either immediately (a duplicate, as internal/core does) or later
// via PopHead/Drain. Conservation demands every inserted byte is
// delivered as many times as it was inserted, whichever route it takes.
// Each pop must take the lowest-starting segment queued; a pop does not
// bound later inserts, since the program may insert below what it already
// popped (core passes such packets through as retransmissions). This pins
// the one contract the core datapath relies on: no byte is ever lost or
// fabricated.
func FuzzSegList(f *testing.F) {
	for _, base := range fuzzBases {
		f.Add(base, []byte{3, 0, 0, 5, 0, 0, 4, 0, 3, 1, 1, 0})
		f.Add(base, []byte{0, 0, 0, 0, 0, 0, 1, 2, 1, 2, 1, 3})
		f.Add(base, []byte{7, 0, 0, 2, 1, 2, 2, 0, 0, 9, 0, 3, 0, 0, 3})
	}
	f.Fuzz(func(t *testing.T, base uint32, program []byte) {
		pool := &packet.SegPool{}
		q := New(KindSegList, pool)
		want := map[uint32]int{} // naive reference: inserted byte -> count
		got := map[uint32]int{}  // bytes the queue delivered

		deliver := func(seq uint32, n int) {
			for b := seq; b != seq+uint32(n); b++ {
				got[b]++
			}
		}
		for i := 0; i+2 < len(program); i += 3 {
			slot, ln, op := program[i], program[i+1], program[i+2]
			p := &packet.Packet{
				Flow: testFlow, Seq: base + uint32(slot%48)*units.MSS,
				PayloadLen: units.MSS, Flags: packet.FlagACK,
			}
			switch ln % 3 {
			case 1:
				p.PayloadLen = units.MSS / 2 // partial record
			case 2:
				p.Flags |= packet.FlagPSH // sealed record
			}
			if op%4 == 3 {
				// Pop instead of insert: timeout-style head delivery.
				if !q.Empty() {
					s := q.PopHead()
					if h := q.Head(); h != nil && packet.SeqLess(h.Seq, s.Seq) {
						t.Fatalf("popped a segment at %d while one at %d is still queued", s.Seq, h.Seq)
					}
					deliver(s.Seq, s.Bytes)
					pool.Put(s)
				}
				continue
			}
			for b := p.Seq; b != p.EndSeq(); b++ {
				want[b]++
			}
			if res, _ := q.Insert(p); res == InsDuplicate {
				// core delivers these unbuffered, immediately.
				deliver(p.Seq, p.PayloadLen)
			}
			if q.Empty() != (q.Bytes() == 0) || q.Pkts() < 0 || q.Bytes() < 0 {
				t.Fatalf("inconsistent counters: empty=%v bytes=%d pkts=%d",
					q.Empty(), q.Bytes(), q.Pkts())
			}
		}
		// Final drain delivers everything still queued, in order.
		queued := q.Bytes()
		drained := q.Drain()
		total := 0
		for i, s := range drained {
			if i > 0 && packet.SeqLess(s.Seq, drained[i-1].Seq) {
				t.Fatalf("drain out of order at %d", i)
			}
			total += s.Bytes
			deliver(s.Seq, s.Bytes)
			pool.Put(s)
		}
		if total != queued {
			t.Fatalf("drained %d bytes of %d queued", total, queued)
		}
		if !q.Empty() || q.Bytes() != 0 || q.Pkts() != 0 {
			t.Fatal("not empty after drain")
		}
		q.RecycleDrained(drained)
		// Conservation against the reference: every inserted byte
		// delivered exactly as many times as it was inserted.
		for b, n := range want {
			if got[b] != n {
				t.Fatalf("byte %d delivered %d times, want %d", b, got[b], n)
			}
		}
		for b, n := range got {
			if want[b] != n {
				t.Fatalf("byte %d fabricated (%d deliveries, %d inserts)", b, n, want[b])
			}
		}
	})
}
