package core

import (
	"slices"
	"testing"
	"time"

	"juggler/internal/chaos"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// fuzzBases are the seed corpus's base sequence numbers: base 1, then two
// that make every seed program straddle the 2^32 wrap.
var fuzzBases = []uint32{1, 1<<32 - 4*units.MSS, 1<<32 - 1}

// FuzzJugglerReceive checks the sequence-offset relation on arbitrary
// packet programs (receiveProgram): a program run from base and from
// base + 2^31 must deliver the same records, sequence numbers taken
// relative to the base. The seed corpus runs every program from base 1 and
// from two bases that straddle the 2^32 wrap, so one run of each of those
// pairs crosses the wrap and its partner does not.
func FuzzJugglerReceive(f *testing.F) {
	for _, base := range fuzzBases {
		f.Add(base, []byte{0, 1, 0, 0, 0, 1, 1, 5, 2})
		f.Add(base, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
		f.Add(base, []byte{0, 0, 0, 0, 0, 0}) // duplicates
	}
	f.Fuzz(func(t *testing.T, base uint32, program []byte) {
		recs, shifted := receiveProgram(t, base, program), receiveProgram(t, base+1<<31, program)
		if !slices.Equal(recs, shifted) {
			t.Fatalf("bases %#x and %#x deliver differently:\n%+v\n%+v", base, base+1<<31, recs, shifted)
		}
	})
}

// receiveProgram drives a Juggler instance with a packet program: each
// input byte triple encodes (flow, seq-slot, op), and slots count from
// base. It checks the invariants the design promises no matter the input
// (bookkeeping consistency, bounded state, byte conservation) and returns
// the delivery records, sequence numbers relative to base.
func receiveProgram(t *testing.T, base uint32, program []byte) []segRecord {
	s := sim.New(1)
	cfg := Config{
		InseqTimeout: 15 * time.Microsecond,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     4,
	}
	var recs []segRecord
	delivered := 0
	j := New(s, cfg, func(seg *packet.Segment) {
		delivered += seg.Bytes
		recs = append(recs, segRecord{at: s.Now(), flow: seg.Flow.SrcPort, seq: seg.Seq - base,
			bytes: seg.Bytes, pkts: seg.Pkts, flags: seg.Flags})
	})
	sent := 0
	for i := 0; i+2 < len(program); i += 3 {
		fl, slot, op := program[i], program[i+1], program[i+2]
		p := &packet.Packet{
			Flow: packet.FiveTuple{
				SrcIP: uint32(fl%5) + 1, DstIP: 2,
				SrcPort: uint16(fl % 5), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Seq:        base + uint32(slot%32)*units.MSS,
			PayloadLen: units.MSS,
			Flags:      packet.FlagACK,
		}
		switch op % 4 {
		case 1:
			p.Flags |= packet.FlagPSH
		case 2:
			p.OptSig = uint32(op)
		case 3:
			s.RunFor(time.Duration(op) * time.Microsecond)
		}
		j.Receive(p)
		sent += p.PayloadLen
		j.checkInvariants()
		if j.BufferedBytes() > cfg.MaxFlows*units.TSOMaxBytes {
			t.Fatalf("base %#x: buffered %d bytes beyond the MaxFlows*64KB bound", base, j.BufferedBytes())
		}
	}
	s.RunFor(time.Millisecond)
	j.checkInvariants()
	j.Flush()
	if delivered != sent {
		t.Fatalf("base %#x: delivered %d of %d bytes", base, delivered, sent)
	}
	return recs
}

// FuzzChaosSegments drives Juggler with duplicated, overlapping, and
// option-corrupted packets while the chaos invariant checker audits the
// same stream end to end: every packet is registered as sent, every
// delivered segment must be a conservation-respecting subset of the sent
// bytes, and the gro_table is audited after every state-mutating entry
// point through the Probe hook. This cross-checks core's own invariants
// (checkInvariants) against the independent observer the fault-injection
// harness uses — the two must never disagree. Slots count from a
// fuzzer-chosen base sequence number, seeded on both sides of the 2^32
// wrap.
func FuzzChaosSegments(f *testing.F) {
	for _, base := range fuzzBases {
		f.Add(base, []byte{0, 1, 0, 0, 1, 4, 0, 2, 5}) // dup then overlap
		f.Add(base, []byte{0, 0, 2, 0, 1, 2, 0, 2, 2}) // corrupted options run
		f.Add(base, []byte{1, 3, 6, 1, 3, 4, 2, 3, 5, 0, 9, 3})
	}
	f.Fuzz(func(t *testing.T, base uint32, program []byte) {
		s := sim.New(1)
		cfg := Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			MaxFlows:     4,
		}
		ck := chaos.NewChecker(s, chaos.Config{})
		sent, delivered := 0, 0
		var j *Juggler
		j = New(s, cfg, func(seg *packet.Segment) {
			ck.ObserveSegment(seg)
			delivered += seg.Bytes
		})
		j.Probe = ck.TableProbe("fuzz", j)
		for i := 0; i+2 < len(program); i += 3 {
			fl, slot, op := program[i], program[i+1], program[i+2]
			p := &packet.Packet{
				Flow: packet.FiveTuple{
					SrcIP: uint32(fl%5) + 1, DstIP: 2,
					SrcPort: uint16(fl % 5), DstPort: 80, Proto: packet.ProtoTCP,
				},
				Seq:        base + uint32(slot%32)*units.MSS,
				PayloadLen: units.MSS,
				Flags:      packet.FlagACK,
			}
			send := 1
			switch op % 8 {
			case 1:
				p.Flags |= packet.FlagPSH
			case 2:
				p.OptSig = uint32(op) // corrupted options signature
			case 3:
				s.RunFor(time.Duration(op) * time.Microsecond)
			case 4:
				send = 2 // exact duplicate
			case 5:
				p.Seq += units.MSS / 2 // straddles two slots
			case 6:
				p.PayloadLen = units.MSS / 2 // partial overlap of one slot
			}
			for ; send > 0; send-- {
				q := *p // each copy is an independent wire packet
				ck.NoteSent(&q)
				sent += q.PayloadLen
				j.Receive(&q)
			}
			if n := ck.Total(); n != 0 {
				t.Fatalf("chaos checker flagged %d violations mid-run: %v", n, ck.Violations())
			}
		}
		s.RunFor(time.Millisecond)
		j.Flush()
		if err := j.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if n := ck.Total(); n != 0 {
			t.Fatalf("chaos checker flagged %d violations: %v", n, ck.Violations())
		}
		if delivered != sent {
			t.Fatalf("delivered %d of %d bytes", delivered, sent)
		}
	})
}

// FuzzBatchPartition checks the gro.Offload batch contract — output does
// not depend on how a poll is split into batches — without a runtime
// reference path. One packet program runs on two Jugglers on separate
// sims: one gets a packet per call, the other gets fuzzer-chosen batch
// splits, each poll at the same instant in both runs. Delivery records,
// Stats, Counters and the simulator's executed-event count must match.
//
// Each program triple is (flow, seq slot, op): op%4 == 1 seals the packet
// with PSH, 2 changes its options signature (a merge boundary), and 3
// ends the poll and idles op microseconds before the next one. Bit k of
// splits (cycled) cuts the split run's batch after packet k. Slots count
// from a fuzzer-chosen base sequence number, as in FuzzJugglerReceive.
func FuzzBatchPartition(f *testing.F) {
	for _, base := range fuzzBases {
		f.Add(base, []byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 3, 0, 1, 0, 5, 1, 0}, []byte{0x55}) // six flows, MaxFlows 4: eviction
		f.Add(base, []byte{0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 0, 2, 0, 0, 2, 0}, []byte{0x09})                   // duplicates
		f.Add(base, []byte{0, 0, 0, 0, 1, 1, 0, 3, 0, 0, 2, 1, 1, 0, 1, 1, 1, 63, 1, 3, 0}, []byte{0x0f, 0xa0})   // sealed packets
	}
	f.Fuzz(func(t *testing.T, base uint32, program, splits []byte) {
		type poll struct {
			at   sim.Time
			pkts []packet.Packet
		}
		var polls []poll
		var at sim.Time
		for i := 0; i+2 < len(program); i += 3 {
			fl, slot, op := program[i], program[i+1], program[i+2]
			if len(polls) == 0 || polls[len(polls)-1].at != at {
				polls = append(polls, poll{at: at})
			}
			p := packet.Packet{
				Flow: packet.FiveTuple{
					SrcIP: uint32(fl%6) + 1, DstIP: 2,
					SrcPort: uint16(fl % 6), DstPort: 80, Proto: packet.ProtoTCP,
				},
				Seq:        base + uint32(slot%32)*units.MSS,
				PayloadLen: units.MSS,
				Flags:      packet.FlagACK,
			}
			switch op % 4 {
			case 1:
				p.Flags |= packet.FlagPSH
			case 2:
				p.OptSig = uint32(op)
			case 3:
				at += sim.Time(op)*sim.Time(time.Microsecond) + 1
			}
			last := &polls[len(polls)-1]
			last.pkts = append(last.pkts, p)
		}
		if len(polls) == 0 {
			return
		}
		cfg := Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			MaxFlows:     4,
		}
		type result struct {
			recs     []segRecord
			stats    Stats
			counters gro.Counters
			executed uint64
		}
		run := func(cut func(k int) bool) result {
			s := sim.New(1)
			var r result
			j := New(s, cfg, func(seg *packet.Segment) {
				r.recs = append(r.recs, segRecord{
					at: s.Now(), flow: seg.Flow.SrcPort, seq: seg.Seq,
					bytes: seg.Bytes, pkts: seg.Pkts, flags: seg.Flags,
				})
			})
			j.Probe = j.checkInvariants
			k := 0
			for _, pl := range polls {
				first := k
				k += len(pl.pkts)
				s.ScheduleAt(pl.at, func() {
					var batch []*packet.Packet
					for i := range pl.pkts {
						q := pl.pkts[i] // each run hands the Juggler its own wire packets
						batch = append(batch, &q)
						if cut(first+i) || i == len(pl.pkts)-1 {
							j.ReceiveBatch(batch)
							batch = batch[:0]
						}
					}
					j.PollComplete()
				})
			}
			s.RunFor(time.Duration(at) + time.Millisecond)
			j.Flush()
			r.stats, r.counters, r.executed = j.Stats, j.Counters(), s.Executed
			return r
		}
		one := run(func(int) bool { return true })
		split := run(func(k int) bool {
			return len(splits) > 0 && splits[(k/8)%len(splits)]>>(k%8)&1 == 1
		})
		if len(one.recs) != len(split.recs) {
			t.Fatalf("packet-per-call run delivered %d segments, split run %d", len(one.recs), len(split.recs))
		}
		for i := range one.recs {
			if one.recs[i] != split.recs[i] {
				t.Fatalf("segment %d differs:\nper packet %+v\nsplit      %+v", i, one.recs[i], split.recs[i])
			}
		}
		if one.stats != split.stats {
			t.Fatalf("stats differ:\nper packet %+v\nsplit      %+v", one.stats, split.stats)
		}
		if one.counters != split.counters {
			t.Fatalf("counters differ:\nper packet %+v\nsplit      %+v", one.counters, split.counters)
		}
		if one.executed != split.executed {
			t.Fatalf("executed events differ: per packet %d, split %d", one.executed, split.executed)
		}
	})
}
