package juggler

// Micro-benchmarks of the hot data structures. The paper's figures are
// regenerated by `go run ./cmd/juggler-bench`, and end-to-end cost per
// packet is measured by the repository benchmark (`go run -C bench .`).
//
//	go test -run '^$' -bench=. -benchmem

import (
	"runtime"
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

var benchFlow = packet.FiveTuple{SrcIP: 10, DstIP: 20, SrcPort: 30, DstPort: 40, Proto: packet.ProtoTCP}

// BenchmarkFiveTupleHash measures the RSS/ECMP hash.
func BenchmarkFiveTupleHash(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N; i++ {
		acc ^= benchFlow.Hash(uint32(i))
	}
	_ = acc
}

// BenchmarkJugglerInOrder measures Juggler's fast path: in-sequence
// packets merging into the head segment.
func BenchmarkJugglerInOrder(b *testing.B) {
	s := sim.New(1)
	n := 0
	j := core.New(s, core.DefaultConfig(), func(seg *packet.Segment) { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	seq := uint32(0)
	for i := 0; i < b.N; i++ {
		j.Receive(&packet.Packet{Flow: benchFlow, Seq: seq, PayloadLen: units.MSS, Flags: packet.FlagACK})
		seq += units.MSS
	}
	_ = n
}

// BenchmarkJugglerReordered measures the OOO path: every other packet
// displaced by one position.
func BenchmarkJugglerReordered(b *testing.B) {
	s := sim.New(1)
	j := core.New(s, core.DefaultConfig(), func(seg *packet.Segment) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		// Swap each adjacent pair: 1,0,3,2,...
		a := uint32((i + 1) * units.MSS)
		bb := uint32(i * units.MSS)
		j.Receive(&packet.Packet{Flow: benchFlow, Seq: a, PayloadLen: units.MSS, Flags: packet.FlagACK})
		j.Receive(&packet.Packet{Flow: benchFlow, Seq: bb, PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
}

// BenchmarkFlowScale measures per-packet cost with 1k/10k/100k concurrent
// reordered flows in one gro_table. Every visit to a flow delivers two
// in-sequence packets, then a displaced pair: the later packet first
// (opening a one-MSS hole, sealed by PSH), then the hole fill, which
// merges the standalone segments — recycling the absorbed one — and
// flushes the sealed result. One packet in four arrives out of place, about
// the share the shardedrx experiment defers (~25%). The per-packet
// figure must stay flat as concurrency grows three orders of magnitude —
// the open-addressing lookup, free-list churn and deadline-queue expiry
// are all O(1) per packet — and the loop must not allocate in steady
// state (TestZeroAllocHoleChurn in internal/core gates the same round).
func BenchmarkFlowScale(b *testing.B) {
	for _, flows := range []int{1000, 10000, 100000} {
		name := map[int]string{1000: "1k", 10000: "10k", 100000: "100k"}[flows]
		b.Run(name, func(b *testing.B) {
			s := sim.New(1)
			pool := packet.SegPoolFromSim(s)
			cfg := core.Config{
				InseqTimeout: 15 * time.Microsecond,
				OfoTimeout:   50 * time.Microsecond,
				MaxFlows:     flows,
			}
			j := core.New(s, cfg, func(seg *packet.Segment) { pool.Put(seg) })
			tuples := make([]packet.FiveTuple, flows)
			hashes := make([]uint32, flows)
			seqs := make([]uint32, flows)
			for f := range tuples {
				tuples[f] = packet.FiveTuple{
					SrcIP: uint32(f/65000) + 1, DstIP: 9,
					SrcPort: uint16(f % 65000), DstPort: 5001, Proto: packet.ProtoTCP,
				}
				hashes[f] = tuples[f].Hash(0)
				seqs[f] = 1
			}
			// One reusable packet: the datapath hands Receive pool-owned
			// heap packets, so a per-call literal would only measure its
			// own escape into the Juggler's batch slot.
			var p packet.Packet
			send := func(f int, seq uint32, flags packet.Flags) {
				p = packet.Packet{Flow: tuples[f], FlowHash: hashes[f],
					Seq: seq, PayloadLen: units.MSS, Flags: packet.FlagACK | flags}
				j.Receive(&p)
			}
			// visit sends one flow's 4-packet round: 2 in-order, then the
			// hole/fill/flush pair.
			visit := func(f int) {
				s0 := seqs[f]
				send(f, s0, 0)                          // in sequence
				send(f, s0+units.MSS, 0)                // in sequence
				send(f, s0+3*units.MSS, packet.FlagPSH) // sealed, 1-MSS hole
				send(f, s0+2*units.MSS, 0)              // fill: merge + flush
				seqs[f] = s0 + 4*units.MSS
			}
			for f := 0; f < flows; f++ {
				visit(f) // warm up: table full, pools and queues sized
			}
			// The measured loop is allocation-free, so one collection here
			// keeps the GC from scanning 100k pointer-rich entries inside
			// the timed region (warmup leaves the heap near the trigger).
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			pkts := 0
			for f := 0; pkts < b.N; f = (f + 1) % flows {
				visit(f)
				pkts += 4
			}
			b.StopTimer()
			if err := j.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkVanillaGROInOrder is the baseline merge path.
func BenchmarkVanillaGROInOrder(b *testing.B) {
	g := gro.NewVanilla(func(seg *packet.Segment) {})
	b.ReportAllocs()
	b.ResetTimer()
	seq := uint32(0)
	for i := 0; i < b.N; i++ {
		g.Receive(&packet.Packet{Flow: benchFlow, Seq: seq, PayloadLen: units.MSS, Flags: packet.FlagACK})
		seq += units.MSS
	}
}

// BenchmarkSimEventLoop measures raw discrete-event throughput.
func BenchmarkSimEventLoop(b *testing.B) {
	s := sim.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(time.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	s.Schedule(0, tick)
	s.Run()
}

// BenchmarkEndToEnd10G measures full-stack simulation speed: simulated
// bytes through the complete pipeline (TCP+NIC+fabric+Juggler) per bench
// op (one op = 1ms of simulated 10G traffic).
func BenchmarkEndToEnd10G(b *testing.B) {
	p := NewReorderPair(ReorderPairConfig{
		Rate: Rate10G, ReorderDelay: 250 * time.Microsecond,
		Receiver: StackJuggler, Seed: 5,
	})
	f := p.AddBulkFlow(0)
	p.Run(20 * time.Millisecond) // warm up slow start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(time.Millisecond)
	}
	b.StopTimer()
	if f.Delivered() == 0 {
		b.Fatal("no progress")
	}
	b.ReportMetric(float64(f.Delivered())/float64(b.N), "simbytes/op")
}
