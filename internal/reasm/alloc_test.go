package reasm

import (
	"testing"

	"juggler/internal/packet"
	"juggler/internal/units"
)

// churnCycle returns one steady-state churn round for q: four MSS packets
// — two in sequence, then a displaced pair (the later, PSH-sealed packet
// before its hole fill) — then pops everything back to the pool. The
// sequence base advances every round.
func churnCycle(q *SegList, pool *packet.SegPool) func() {
	// One reusable packet: the production datapath hands Insert pool-owned
	// heap packets, so a per-call stack packet would only measure its own
	// escape.
	var p packet.Packet
	seq := uint32(units.MSS)
	ins := func(at uint32, flags packet.Flags) {
		p = packet.Packet{Flow: testFlow, Seq: at, PayloadLen: units.MSS,
			Flags: packet.FlagACK | flags}
		q.Insert(&p)
	}
	return func() {
		ins(seq, 0)
		ins(seq+units.MSS, 0)
		ins(seq+3*units.MSS, packet.FlagPSH)
		ins(seq+2*units.MSS, 0)
		for !q.Empty() {
			pool.Put(q.PopHead())
		}
		seq += 4 * units.MSS
	}
}

// TestZeroAllocSegList pins steady-state churn to zero heap allocations:
// once the backing arrays and the segment pool have reached working-set
// size, insert/merge/pop cycles must recycle everything.
func TestZeroAllocSegList(t *testing.T) {
	pool := &packet.SegPool{}
	q := New(KindSegList, pool)
	cycle := churnCycle(q, pool)
	for i := 0; i < 8; i++ {
		cycle() // warm the backing arrays and the pool free list
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f per cycle, want 0", allocs)
	}
	if !q.Empty() || q.Bytes() != 0 || q.Pkts() != 0 {
		t.Fatalf("queue not empty after churn: len=%d bytes=%d pkts=%d",
			q.Len(), q.Bytes(), q.Pkts())
	}
}
