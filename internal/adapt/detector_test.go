package adapt

import (
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

func flow(n uint16) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: n, DstPort: 4, Proto: packet.ProtoTCP}
}

func dataPkt(ft packet.FiveTuple, seqMSS int) *packet.Packet {
	return &packet.Packet{
		Flow: ft, Seq: uint32(seqMSS * units.MSS), PayloadLen: units.MSS,
		Flags: packet.FlagACK,
	}
}

func at(us int64) sim.Time { return sim.Time(us * int64(time.Microsecond)) }

func TestDetectorInOrder(t *testing.T) {
	d := NewDetector()
	ft := flow(1)
	for i := 0; i < 10; i++ {
		s := d.Observe(dataPkt(ft, i), at(int64(i)))
		if s.Verdict != VerdictInOrder {
			t.Fatalf("packet %d: verdict = %v, want in-order", i, s.Verdict)
		}
	}
	e := d.Snapshot()
	if e.Packets != 10 || e.Measured != 10 || e.Reordered != 0 || e.Unmeasured != 0 {
		t.Fatalf("estimates = %+v", e)
	}
	if e.ReorderRate != 0 {
		t.Fatalf("reorder rate = %v, want 0", e.ReorderRate)
	}
}

func TestDetectorSkipsPureAcks(t *testing.T) {
	d := NewDetector()
	p := &packet.Packet{Flow: flow(1), Flags: packet.FlagACK}
	if s := d.Observe(p, at(0)); s.Verdict != VerdictSkipped {
		t.Fatalf("verdict = %v, want skipped", s.Verdict)
	}
	if e := d.Snapshot(); e.Packets != 0 {
		t.Fatalf("pure ACK counted as data packet: %+v", e)
	}
}

func TestDetectorReorderLagAndLateness(t *testing.T) {
	d := NewDetector()
	ft := flow(1)
	// 0 arrives, then 2 and 3 overtake; 1 arrives 40us after 3 set the
	// watermark.
	d.Observe(dataPkt(ft, 0), at(0))
	d.Observe(dataPkt(ft, 2), at(5))
	d.Observe(dataPkt(ft, 3), at(10))
	s := d.Observe(dataPkt(ft, 1), at(50))
	if s.Verdict != VerdictReordered {
		t.Fatalf("verdict = %v, want reordered", s.Verdict)
	}
	if s.Lateness != 40*time.Microsecond {
		t.Fatalf("lateness = %v, want 40us", s.Lateness)
	}
	e := d.Snapshot()
	if e.Reordered != 1 {
		t.Fatalf("reordered = %d, want 1", e.Reordered)
	}
	if e.SkewEWMA <= 0 || e.SkewEWMA > 40*time.Microsecond {
		t.Fatalf("skew EWMA = %v, want in (0, 40us]", e.SkewEWMA)
	}
	if got := d.TakeWindowMax(); got != 40*time.Microsecond {
		t.Fatalf("window max = %v, want 40us", got)
	}
	if got := d.TakeWindowMax(); got != 0 {
		t.Fatalf("window max after reset = %v, want 0", got)
	}
}

// TestDetectorDuplicateIsLagZero: a duplicate of the watermark packet
// (zero displacement) still arrives below the watermark, so it counts as
// reordered, trailing the original by the gap between the two.
func TestDetectorDuplicateIsLagZero(t *testing.T) {
	d := NewDetector()
	ft := flow(1)
	d.Observe(dataPkt(ft, 0), at(0))
	s := d.Observe(dataPkt(ft, 0), at(10))
	if s.Verdict != VerdictReordered || s.Lateness != 10*time.Microsecond {
		t.Fatalf("duplicate: verdict=%v lateness=%v, want reordered 10us", s.Verdict, s.Lateness)
	}
	if e := d.Snapshot(); e.Reordered != 1 {
		t.Fatalf("reordered = %d, want 1", e.Reordered)
	}
}

// TestDetectorRetransExcludedFromSkew: lateness past the 1ms skew-sample
// cap is counted reordered but kept out of the skew estimators — an RTO
// retransmission trails by a full RTO and would otherwise pin ofo_timeout
// at its ceiling.
func TestDetectorRetransExcludedFromSkew(t *testing.T) {
	d := NewDetector()
	ft := flow(1)
	d.Observe(dataPkt(ft, 0), at(0))
	d.Observe(dataPkt(ft, 2), at(5))
	s := d.Observe(dataPkt(ft, 1), at(1006)) // 1001us late: past the cap
	if s.Verdict != VerdictReordered {
		t.Fatalf("verdict = %v, want reordered", s.Verdict)
	}
	e := d.Snapshot()
	if e.Reordered != 1 {
		t.Fatalf("reordered = %d, want 1", e.Reordered)
	}
	if e.SkewEWMA != 0 {
		t.Fatalf("skew EWMA = %v, want 0 (sample excluded)", e.SkewEWMA)
	}
	if got := d.TakeWindowMax(); got != 0 {
		t.Fatalf("window max = %v, want 0 (sample excluded)", got)
	}
}

// collide pairs flow(1) with a flow whose salt-0 hash is a different
// fingerprint that agrees with flow(1)'s on the low `bits` bits and not on
// the next one: collide(10) lands in flow(1)'s slot of the 1024-slot
// sketch, collide(9) would only in a sketch half that size.
func collide(t *testing.T, bits uint) (a, b packet.FiveTuple) {
	t.Helper()
	mask := uint32(1)<<bits - 1
	a = flow(1)
	ha := a.Hash(0)
	for n := uint16(2); n < 60000; n++ {
		b = flow(n)
		hb := b.Hash(0)
		if hb != ha && (hb&mask) == (ha&mask) && (hb^ha)&(mask+1) != 0 {
			return a, b
		}
	}
	t.Fatal("no colliding flow pair found")
	return
}

func TestDetectorCollisionUnmeasuredThenSteal(t *testing.T) {
	d := NewDetector()
	a, b := collide(t, 10)
	d.Observe(dataPkt(a, 0), at(0))
	// b collides with a's live claim: coverage loss, not a verdict.
	if s := d.Observe(dataPkt(b, 0), at(10)); s.Verdict != VerdictUnmeasured {
		t.Fatalf("live collision: verdict = %v, want unmeasured", s.Verdict)
	}
	if s := d.Observe(dataPkt(b, 0), at(9990)); s.Verdict != VerdictUnmeasured {
		t.Fatalf("collision inside the 10ms claim TTL: verdict = %v, want unmeasured", s.Verdict)
	}
	// After the 10ms claim TTL, b steals the slot and measures normally.
	if s := d.Observe(dataPkt(b, 1), at(10010)); s.Verdict != VerdictInOrder {
		t.Fatalf("post-TTL: verdict = %v, want in-order", s.Verdict)
	}
	e := d.Snapshot()
	if e.Unmeasured != 2 || e.Steals != 1 {
		t.Fatalf("unmeasured=%d steals=%d, want 2/1", e.Unmeasured, e.Steals)
	}
	// A flow sharing only the low 9 bits with a has a slot of its own.
	_, c := collide(t, 9)
	if s := d.Observe(dataPkt(c, 0), at(10020)); s.Verdict != VerdictInOrder {
		t.Fatalf("distinct slot: verdict = %v, want in-order", s.Verdict)
	}
}

// TestDetectorMatchesReference: with hash-distinct flows (no sketch
// collisions) the constant-memory detector must agree with the exact
// map-based oracle packet for packet.
func TestDetectorMatchesReference(t *testing.T) {
	d := NewDetector()
	ref := NewReference()

	// Deterministic interleaving of 3 flows with displacement patterns:
	// in-order runs, swaps, a long overtake, duplicates.
	type arrival struct {
		f   uint16
		seq int
		at  int64
	}
	script := []arrival{
		{1, 0, 0}, {2, 0, 1}, {3, 0, 2},
		{1, 1, 3}, {1, 3, 4}, {1, 2, 30}, // swap inside flow 1
		{2, 2, 5}, {2, 1, 40}, // hole then late fill in flow 2
		{3, 1, 6}, {3, 2, 7}, {3, 3, 8}, // clean run in flow 3
		{1, 4, 50}, {1, 4, 60}, // duplicate
		{2, 5, 55}, {2, 3, 70}, {2, 4, 80}, // deep overtake
	}
	for i, a := range script {
		ft := flow(a.f)
		got := d.Observe(dataPkt(ft, a.seq), at(a.at))
		want := ref.Observe(dataPkt(ft, a.seq), at(a.at))
		if got != want {
			t.Fatalf("arrival %d (%+v): sketch %+v != reference %+v", i, a, got, want)
		}
	}
	de, re := d.Snapshot(), ref.Snapshot()
	if de.Steals != 0 || de.Unmeasured != 0 {
		t.Fatalf("script collided: %+v", de)
	}
	if de != re {
		t.Fatalf("sketch %+v != reference %+v", de, re)
	}
}

func TestDetectorCoalesceEWMA(t *testing.T) {
	d := NewDetector()
	p := dataPkt(flow(1), 0)
	p.Stamps[packet.HopNICRx] = at(10)
	p.Stamps[packet.HopNAPIPoll] = at(25)
	d.Observe(p, at(25))
	if e := d.Snapshot(); e.CoalesceEWMA <= 0 || e.CoalesceEWMA > 15*time.Microsecond {
		t.Fatalf("coalesce EWMA = %v, want in (0, 15us]", e.CoalesceEWMA)
	}
}
