package core

import (
	"runtime"
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// These tests pin the flow-scale datapath's allocation behaviour to zero.
// Flow state is allocation-free from construction on: New allocates the
// flow slab, its index and every entry's first queue array, admitting a
// flow takes a slab entry, and flow churn recycles entries through the
// free list. Hole churn recycles segments through the segment pool, so
// once the pool holds a run's working set of segments the receive path
// never touches the heap. CI runs them under the ZeroAlloc pattern next
// to the sim/packet pool guards.

// TestFreshFlowsZeroAlloc admits the first packets of MaxFlows distinct
// flows into a fresh Juggler. Nothing has been warmed but the segment
// pool, which holds one segment: each packet is sealed, so it flushes at
// once and its segment comes back before the next flow arrives. This is
// what an RSS rehash does to a flow-scale host — every flow lands on a
// queue that has never seen it — and the churn test below cannot see it,
// because its warm-up cycle admits flows before it measures.
func TestFreshFlowsZeroAlloc(t *testing.T) {
	const flows = 4096
	s := sim.New(1)
	pool := packet.SegPoolFromSim(s)
	pool.Put(pool.Get())
	cfg := Config{
		InseqTimeout: 15 * time.Microsecond,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     flows,
	}
	j := New(s, cfg, func(seg *packet.Segment) { pool.Put(seg) })
	p := &packet.Packet{
		Flow:       packet.FiveTuple{SrcIP: 1, DstIP: 2, DstPort: 5001, Proto: packet.ProtoTCP},
		Seq:        1,
		PayloadLen: units.MSS,
		Flags:      packet.FlagACK | packet.FlagPSH, // sealed: flushes at once
	}

	// testing.AllocsPerRun would admit the flows once unmeasured first, so
	// the count is taken by hand, the same way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for f := 0; f < flows; f++ {
		p.Flow.SrcPort = uint16(f)
		p.FlowHash = p.Flow.Hash(0)
		j.Receive(p)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("admitting %d fresh flows allocates %d objects, want 0", flows, n)
	}
	if j.TableLen() != flows || j.Stats.FlushEvent != flows || pool.Live() != 0 {
		t.Fatalf("table %d flows, %d flushes, %d segments live; want %d, %d, 0",
			j.TableLen(), j.Stats.FlushEvent, pool.Live(), flows, flows)
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocFlowChurn cycles many more flows than MaxFlows through the
// table: every new flow evicts a post-merge one, exercising newFlow,
// evict, releaseFlow and the open-addressing insert/delete paths.
func TestZeroAllocFlowChurn(t *testing.T) {
	s := sim.New(1)
	pool := packet.SegPoolFromSim(s)
	cfg := Config{
		InseqTimeout: 15 * time.Microsecond,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     64,
	}
	j := New(s, cfg, func(seg *packet.Segment) { pool.Put(seg) })

	p := packet.Packet{
		Flow: packet.FiveTuple{
			SrcIP: 1, DstIP: 2, DstPort: 5001, Proto: packet.ProtoTCP,
		},
		PayloadLen: units.MSS,
		Flags:      packet.FlagACK | packet.FlagPSH, // sealed: flushes at once
	}
	port := uint16(0)
	cycle := func() {
		// 128 single-packet flows over 64 slots: half the iterations evict.
		for i := 0; i < 128; i++ {
			port++
			p.Flow.SrcPort = 10000 + port%128
			p.FlowHash = p.Flow.Hash(0)
			p.Seq += units.MSS
			j.Receive(&p)
		}
	}
	cycle() // warm up the free lists and table to working-set size
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state flow churn allocates %.1f per cycle, want 0", allocs)
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroAllocHoleChurn drives the flow-scale hole/fill/flush round over
// 64 flows: two in-sequence packets, then a displaced pair (the later,
// PSH-sealed packet first, then the hole fill, which append-merges the
// standalone segments — returning the absorbed one to the pool — and
// flushes the sealed result through the deliver callback). Hop stamps are
// on in every mode, and each mode must stay allocation-free once warm:
//
//   - forensics_nil_sink: one-packet batches (Receive) with no telemetry
//     sink, so the decision/delivery hooks are each one disabled branch —
//     the tax every production packet pays;
//   - batch_pipeline: the same rounds as one four-packet ReceiveBatch per
//     flow, whose epilogue (touched-flow list, deferred deadline re-files)
//     must recycle its state or every NAPI poll would allocate;
//   - forensics_sampled: a live telemetry.Sink at 1-in-8 stamp sampling,
//     the pay-as-you-go recording path (sampled stamping, gated decisions,
//     recorder events).
func TestZeroAllocHoleChurn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batched bool // four-packet batches instead of one-packet ones
		sink    bool // attach a live telemetry sink
		sample  int  // 1-in-N hop-stamp sampling; <= 1 stamps every packet
	}{
		{name: "forensics_nil_sink"},
		{name: "batch_pipeline", batched: true},
		{name: "forensics_sampled", sink: true, sample: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const flows = 64
			s := sim.New(1)
			packet.AttachStampSampler(s, tc.sample)
			sampler := packet.StampSamplerFromSim(s)
			var tel *telemetry.Sink
			if tc.sink {
				tel = telemetry.New(s, telemetry.Options{})
			}
			pool := packet.SegPoolFromSim(s)
			cfg := Config{
				InseqTimeout: 15 * time.Microsecond,
				OfoTimeout:   50 * time.Microsecond,
				MaxFlows:     flows,
			}
			j := New(s, cfg, func(seg *packet.Segment) {
				if !seg.SkipStamps {
					packet.Stamp(&seg.Stamps, packet.HopDeliver, s.Now())
					tel.ObserveDelivery(seg)
				}
				pool.Put(seg)
			})

			var tuples [flows]packet.FiveTuple
			var hashes [flows]uint32
			var seqs [flows]uint32
			for f := range tuples {
				tuples[f] = packet.FiveTuple{SrcIP: 1, DstIP: 9,
					SrcPort: uint16(f), DstPort: 5001, Proto: packet.ProtoTCP}
				hashes[f] = tuples[f].Hash(0)
				seqs[f] = 1
			}
			// Reusable packets: the datapath hands ReceiveBatch pool-owned heap
			// packets, so per-call stack packets would only measure the
			// test's own escape into the batch slice, not core's
			// behaviour. Four slots so a batch holds distinct
			// packets, as on the wire.
			var pkts [4]packet.Packet
			batch := make([]*packet.Packet, len(pkts))
			mint := func(slot, f int, seq uint32, flags packet.Flags) *packet.Packet {
				p := &pkts[slot]
				*p = packet.Packet{Flow: tuples[f], FlowHash: hashes[f], Seq: seq,
					PayloadLen: units.MSS, Flags: packet.FlagACK | flags}
				sampler.Apply(p)
				packet.StampPkt(p, packet.HopGROBuffer, s.Now())
				return p
			}
			cycle := func() {
				for f := 0; f < flows; f++ {
					s0 := seqs[f]
					batch[0] = mint(0, f, s0, 0)
					batch[1] = mint(1, f, s0+units.MSS, 0)
					batch[2] = mint(2, f, s0+3*units.MSS, packet.FlagPSH) // sealed, 1-MSS hole
					batch[3] = mint(3, f, s0+2*units.MSS, 0)              // fill: merge + flush
					if tc.batched {
						j.ReceiveBatch(batch)
					} else {
						for _, p := range batch {
							j.Receive(p)
						}
					}
					seqs[f] = s0 + 4*units.MSS
				}
			}
			cycle() // warm up pool, table and queue arrays
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Fatalf("steady-state hole churn allocates %.1f per cycle, want 0", allocs)
			}
			if j.Stats.FlushEvent == 0 || j.BufferedBytes() != 0 {
				t.Fatalf("workload did not exercise the flush path (flushes=%d buffered=%d)",
					j.Stats.FlushEvent, j.BufferedBytes())
			}
			if err := j.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
