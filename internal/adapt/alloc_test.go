package adapt

import (
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// TestDetectorObserveZeroAlloc: Observe sits on the per-packet datapath
// ahead of the Juggler; it must never allocate.
func TestDetectorObserveZeroAlloc(t *testing.T) {
	d := NewDetector()
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	p := packet.Packet{Flow: ft, PayloadLen: units.MSS, Flags: packet.FlagACK}
	p.Stamps[packet.HopNICRx] = 1
	p.Stamps[packet.HopNAPIPoll] = 2

	seq, now := uint32(0), sim.Time(0)
	avg := testing.AllocsPerRun(200, func() {
		// Alternate in-order advances with one-packet swaps so both the
		// watermark and the reordered paths run.
		p.Seq = seq + uint32(units.MSS)
		d.Observe(&p, now)
		p.Seq = seq
		d.Observe(&p, now+sim.Time(10*time.Microsecond))
		seq += 2 * uint32(units.MSS)
		now += sim.Time(50 * time.Microsecond)
	})
	if avg != 0 {
		t.Fatalf("Observe allocates %.1f times per packet pair, want 0", avg)
	}
}

// BenchmarkAdaptDetector measures the sketch's per-packet cost on a mixed
// in-order/reordered arrival pattern.
func BenchmarkAdaptDetector(b *testing.B) {
	d := NewDetector()
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	p := packet.Packet{Flow: ft, PayloadLen: units.MSS, Flags: packet.FlagACK}
	p.Stamps[packet.HopNICRx] = 1
	p.Stamps[packet.HopNAPIPoll] = 2

	b.ReportAllocs()
	seq, now := uint32(0), sim.Time(0)
	for i := 0; i < b.N; i++ {
		if i&3 == 3 {
			// Every fourth packet trails one position behind.
			p.Seq = seq - uint32(units.MSS)
		} else {
			p.Seq = seq
			seq += uint32(units.MSS)
		}
		d.Observe(&p, now)
		now += sim.Time(time.Microsecond)
	}
}
