package packet

import (
	"testing"
	"unsafe"

	"juggler/internal/sim"
)

func TestPoolRecyclesAndZeroes(t *testing.T) {
	pl := &Pool{}
	p1 := pl.Get()
	p1.Seq = 42
	p1.PayloadLen = 1500
	p1.Flags = FlagACK
	pl.Put(p1)

	p2 := pl.Get()
	if p2 != p1 {
		t.Errorf("Get after Put returned a fresh packet, want the recycled one")
	}
	if p2.Seq != 0 || p2.PayloadLen != 0 || p2.Flags != 0 {
		t.Errorf("recycled packet not zeroed: %+v", p2)
	}
	if pl.Gets != 2 || pl.Reuses != 1 {
		t.Errorf("counters Gets=%d Reuses=%d, want 2/1", pl.Gets, pl.Reuses)
	}
}

func TestPoolNilSafe(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil {
		t.Fatalf("nil pool Get returned nil")
	}
	pl.Put(p)          // no-op
	(&Pool{}).Put(nil) // no-op
}

func TestPoolFromSim(t *testing.T) {
	if PoolFromSim(nil) != nil {
		t.Errorf("PoolFromSim(nil) should be nil")
	}
	s := sim.New(1)
	pl := PoolFromSim(s)
	if pl == nil {
		t.Fatalf("PoolFromSim did not install a pool")
	}
	if again := PoolFromSim(s); again != pl {
		t.Errorf("PoolFromSim returned a different pool on second call")
	}
}

// TestPacketRecycleZeroAlloc pins the datapath contract: a Get/Put cycle
// against a stocked pool allocates nothing.
func TestPacketRecycleZeroAlloc(t *testing.T) {
	pl := &Pool{}
	pl.Put(&Packet{}) // stock one packet; append settles capacity
	pl.Put(pl.Get())
	if allocs := testing.AllocsPerRun(1000, func() {
		p := pl.Get()
		p.Seq = 1
		pl.Put(p)
	}); allocs != 0 {
		t.Errorf("steady-state Get+Put allocates %v objects/op, want 0", allocs)
	}
}

// TestSegPoolPutZeroAlloc returns 10 000 distinct segments to an empty
// pool: the free list threads through the segments themselves, so a Put
// never allocates, however many segments the pool ends up holding. Each
// run starts from an empty pool, so the measured run grows nothing the
// warm-up run left behind.
func TestSegPoolPutZeroAlloc(t *testing.T) {
	segs := make([]*Segment, 10000)
	for i := range segs {
		segs[i] = &Segment{}
	}
	var pl SegPool
	allocs := testing.AllocsPerRun(1, func() {
		pl = SegPool{}
		for _, s := range segs {
			pl.Put(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("putting %d segments allocates %v objects, want 0", len(segs), allocs)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if s := pl.Get(); s != segs[i] {
			t.Fatalf("Get %d returned a segment that was not put last", len(segs)-1-i)
		}
	}
	if pl.Puts != uint64(len(segs)) || pl.Gets != pl.Puts || pl.Reuses != pl.Gets {
		t.Fatalf("counters Puts=%d Gets=%d Reuses=%d, want %d each", pl.Puts, pl.Gets, pl.Reuses, len(segs))
	}
}

// TestSegmentSize pins Segment inside the 176-byte size class: the free
// list's link rides in the struct's tail, and a field that pushed it into
// the next class would cost every pooled segment 16 bytes.
func TestSegmentSize(t *testing.T) {
	if n := unsafe.Sizeof(Segment{}); n > 176 {
		t.Fatalf("Segment is %d bytes, want <= 176", n)
	}
}

// BenchmarkPacketAlloc compares the recycled packet path (what the NIC TX
// engine and ACK generator do per wire packet) against plain heap
// allocation.
func BenchmarkPacketAlloc(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		pl := &Pool{}
		pl.Put(&Packet{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pl.Get()
			p.Seq = uint32(i)
			p.PayloadLen = 1448
			pl.Put(p)
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := &Packet{}
			p.Seq = uint32(i)
			p.PayloadLen = 1448
			sinkPacket = p
		}
	})
}

var sinkPacket *Packet
