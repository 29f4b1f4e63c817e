package adapt

import (
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// FuzzAdaptDetector differentially tests the constant-memory sketch
// against the exact map-based reference. The documented error bound is:
// collisions cost coverage, never correctness. Concretely —
//
//   - while the run has no slot collisions (Steals == Unmeasured == 0),
//     every per-packet Sample must equal the reference's exactly;
//   - with collisions, the conservation invariants must still hold:
//     Measured+Unmeasured == Packets, Reordered <= Measured, and
//     Reordered never exceeds the reference's count (a collision resets a
//     watermark, which can only hide reordering, not invent it).
func FuzzAdaptDetector(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0x83, 0x22, 0x05})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x07, 0x70, 0x33})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Tiny sketch so the fuzzer can actually reach the collision paths.
		cfg := DetectorConfig{Slots: 16, ClaimTTL: 500 * time.Microsecond}
		det := NewDetector(cfg)
		ref := NewReference(cfg)

		// Interpret the corpus as (flow, seq-delta, time-delta) triples over
		// an 8-flow pool. Sequence deltas are signed MSS offsets from each
		// flow's running head, so arrivals go backwards (reordering,
		// duplicates) as well as forwards (holes).
		heads := make(map[uint16]int)
		now := sim.Time(0)
		clean := true
		for i := 0; i+2 < len(data); i += 3 {
			fl := uint16(data[i] & 0x07)
			delta := int(int8(data[i+1])) % 8
			now += sim.Time(data[i+2]) * sim.Time(50*time.Microsecond) / 4

			seq := heads[fl] + delta
			if seq < 0 {
				seq = 0
			}
			if seq > heads[fl] {
				heads[fl] = seq
			}
			ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000 + fl, DstPort: 4, Proto: packet.ProtoTCP}
			p := &packet.Packet{Flow: ft, Seq: uint32(seq * units.MSS),
				PayloadLen: units.MSS, Flags: packet.FlagACK}

			got := det.Observe(p, now)
			want := ref.Observe(p, now)
			if got.Verdict == VerdictUnmeasured || det.Snapshot().Steals > 0 {
				clean = false
			}
			if clean && got != want {
				t.Fatalf("arrival %d (flow %d seq %d at %v): sketch %+v != reference %+v",
					i/3, fl, seq, time.Duration(now), got, want)
			}
		}

		de, re := det.Snapshot(), ref.Snapshot()
		if de.Packets != re.Packets {
			t.Fatalf("packet counts diverged: sketch %d, reference %d", de.Packets, re.Packets)
		}
		if de.Measured+de.Unmeasured != de.Packets {
			t.Fatalf("conservation violated: measured %d + unmeasured %d != packets %d",
				de.Measured, de.Unmeasured, de.Packets)
		}
		if de.Reordered > de.Measured {
			t.Fatalf("reordered %d > measured %d", de.Reordered, de.Measured)
		}
		if de.Reordered > re.Reordered {
			t.Fatalf("sketch invented reordering: %d > reference %d", de.Reordered, re.Reordered)
		}
		if clean {
			if de != re {
				t.Fatalf("collision-free run diverged: sketch %+v != reference %+v", de, re)
			}
		}
	})
}
