package adapt

import (
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// loopHarness wires a Juggler behind a controller tap on a fresh
// simulation, the way testbed.Host does.
type loopHarness struct {
	s *sim.Sim
	c *Controller
	j *core.Juggler
	t gro.Offload
}

func newLoop(t *testing.T, jcfg core.Config) *loopHarness {
	t.Helper()
	h := &loopHarness{s: sim.New(1)}
	pool := packet.SegPoolFromSim(h.s)
	h.j = core.New(h.s, jcfg, func(seg *packet.Segment) { pool.Put(seg) })
	h.c = NewController(h.s)
	h.t = h.c.Wrap(h.j)
	return h
}

func (h *loopHarness) recvAt(d time.Duration, p *packet.Packet) {
	h.s.Schedule(d, func() { h.t.ReceiveBatch([]*packet.Packet{p}) })
}

// background feeds an in-order flow one packet every 10us for d, so each
// 1ms tick measures 100 packets (past minSamples) without adding any
// reordering of its own.
func (h *loopHarness) background(d time.Duration) {
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 7, DstPort: 4, Proto: packet.ProtoTCP}
	for i := 0; time.Duration(i)*10*time.Microsecond < d; i++ {
		h.recvAt(time.Duration(i)*10*time.Microsecond,
			&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
}

// TestControllerSeedsFromJuggler: the first wrapped instance defines the
// loop's starting point.
func TestControllerSeedsFromJuggler(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 33 * time.Microsecond
	jcfg.OfoTimeout = 170 * time.Microsecond
	h := newLoop(t, jcfg)
	inseq, ofo := h.c.Timeouts()
	if inseq != 33*time.Microsecond || ofo != 170*time.Microsecond {
		t.Fatalf("seeded timeouts = %v/%v, want 33us/170us", inseq, ofo)
	}
}

// TestControllerRaisesOfoOnExpiries: under persistent skew that exceeds
// ofo_timeout, the Jugglers' expiry counters plus in-band stragglers must
// drive ofo_timeout up until the expiries stop, and the new value must be
// applied to the wrapped instance.
func TestControllerRaisesOfoOnExpiries(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 15 * time.Microsecond
	jcfg.OfoTimeout = 60 * time.Microsecond
	h := newLoop(t, jcfg)
	h.background(45 * time.Millisecond)

	// Every 200us a 3-packet batch arrives with its middle packet trailing
	// 300us behind: the hole outlives the 60us ofo_timeout until the
	// controller raises it past ~300us.
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	mk := func(seqMSS int) *packet.Packet {
		return &packet.Packet{Flow: ft, Seq: uint32(seqMSS * units.MSS),
			PayloadLen: units.MSS, Flags: packet.FlagACK}
	}
	for i := 0; i < 200; i++ {
		base := time.Duration(i) * 200 * time.Microsecond
		h.recvAt(base, mk(3*i))
		h.recvAt(base+time.Microsecond, mk(3*i+2))
		h.recvAt(base+300*time.Microsecond, mk(3*i+1))
	}
	h.s.RunFor(45 * time.Millisecond)

	_, ofo := h.c.Timeouts()
	if ofo <= 300*time.Microsecond {
		t.Fatalf("ofo = %v, want > 300us after sustained expiries", ofo)
	}
	if got := h.j.Config().OfoTimeout; got != ofo {
		t.Fatalf("juggler ofo = %v, controller = %v: retune not applied", got, ofo)
	}
	if h.c.Stats.Retunes == 0 {
		t.Fatal("no retunes recorded")
	}
}

// TestControllerProbesDownAndBacksOff: with skew comfortably under
// ofo_timeout, patience-gated probes walk the timeout down; a probe that
// causes expiries is reverted and the next probe waits longer.
func TestControllerProbesDown(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 15 * time.Microsecond
	jcfg.OfoTimeout = 800 * time.Microsecond
	h := newLoop(t, jcfg)
	h.background(65 * time.Millisecond)

	// Mild skew: stragglers trail 100us. 800us is over-provisioned.
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	mk := func(seqMSS int) *packet.Packet {
		return &packet.Packet{Flow: ft, Seq: uint32(seqMSS * units.MSS),
			PayloadLen: units.MSS, Flags: packet.FlagACK}
	}
	for i := 0; i < 300; i++ {
		base := time.Duration(i) * 200 * time.Microsecond
		h.recvAt(base, mk(3*i))
		h.recvAt(base+time.Microsecond, mk(3*i+2))
		h.recvAt(base+100*time.Microsecond, mk(3*i+1))
	}
	h.s.RunFor(65 * time.Millisecond)

	_, ofo := h.c.Timeouts()
	if ofo >= 800*time.Microsecond {
		t.Fatalf("ofo = %v, want lowered from 800us", ofo)
	}
	if ofo < 100*time.Microsecond {
		t.Fatalf("ofo = %v, probed below the 100us skew floor", ofo)
	}
}

// TestControllerQuiescence: the control loop must not keep the event queue
// alive once traffic stops — the timer re-arms only while packets flow.
func TestControllerQuiescence(t *testing.T) {
	h := newLoop(t, core.DefaultConfig())
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	for i := 0; i < 20; i++ {
		h.recvAt(time.Duration(i)*50*time.Microsecond,
			&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
	h.s.RunFor(100 * time.Millisecond)
	if n := h.s.Pending(); n != 0 {
		t.Fatalf("%d events still pending after drain: the controller leaked a timer", n)
	}
}

// TestControllerIdleTrim: sustained in-order traffic relaxes the loop,
// which bounds the inactive list via eviction.
func TestControllerIdleTrim(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.MaxFlows = 16
	jcfg.InseqTimeout = 15 * time.Microsecond
	jcfg.OfoTimeout = 50 * time.Microsecond
	h := newLoop(t, jcfg)

	// 12 flows send a short in-order burst each, then go idle; a
	// background flow keeps ticking the loop past the eight quiet windows
	// that relax it.
	for f := 0; f < 12; f++ {
		ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(100 + f), DstPort: 4, Proto: packet.ProtoTCP}
		for i := 0; i < 3; i++ {
			h.recvAt(time.Duration(f*10+i)*10*time.Microsecond,
				&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
		}
	}
	bg := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 99, DstPort: 4, Proto: packet.ProtoTCP}
	for i := 0; i < 150; i++ {
		h.recvAt(time.Duration(i)*100*time.Microsecond,
			&packet.Packet{Flow: bg, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
	h.s.RunFor(20 * time.Millisecond)

	const bound = 4 // idleFrac (0.25) of MaxFlows (16)
	if n := h.j.InactiveLen(); n > bound {
		t.Fatalf("inactive list = %d flows, want <= %d after idle trim", n, bound)
	}
	if h.j.Stats.EvictionsInactive == 0 {
		t.Fatal("no idle evictions recorded")
	}
	if err := h.j.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after trim: %v", err)
	}
}

// TestControllerRelaxesToFloors: after the skew episode ends, quiet
// windows decay ofo_timeout back down instead of leaving it pinned. The
// eighth quiet tick (at 8ms) takes the first step, clamped to the bounds
// (inseq 5..150us, ofo 25us..2ms); later steps move by at most 1.5x and
// stop inside the 25% deadband of the target, which is the 52us batch
// time for inseq and the floor for ofo.
func TestControllerRelaxesToFloors(t *testing.T) {
	us := time.Microsecond
	for _, tc := range []struct {
		inseq, ofo       time.Duration // seeded
		inseq8, ofo8     time.Duration // after the 8ms tick
		inseqEnd, ofoEnd time.Duration
	}{
		{2 * us, 5 * time.Millisecond, 5 * us, 2 * time.Millisecond, 52 * us, 25 * us},
		{300 * us, 600 * us, 150 * us, 400 * us, 67 * us, 25 * us},
	} {
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout, jcfg.OfoTimeout = tc.inseq, tc.ofo
		h := newLoop(t, jcfg)

		ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
		// Purely in-order traffic for many windows.
		for i := 0; i < 300; i++ {
			h.recvAt(time.Duration(i)*100*time.Microsecond,
				&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
		}
		h.s.RunFor(7500 * us)
		if inseq, ofo := h.c.Timeouts(); inseq != tc.inseq || ofo != tc.ofo {
			t.Fatalf("seed %v/%v: moved to %v/%v before the eighth quiet tick", tc.inseq, tc.ofo, inseq, ofo)
		}
		h.s.RunFor(time.Millisecond)
		if inseq, ofo := h.c.Timeouts(); inseq != tc.inseq8 || ofo != tc.ofo8 {
			t.Fatalf("seed %v/%v: %v/%v after the eighth quiet tick, want %v/%v",
				tc.inseq, tc.ofo, inseq, ofo, tc.inseq8, tc.ofo8)
		}
		h.s.RunFor(40 * time.Millisecond)
		if inseq, ofo := h.c.Timeouts(); inseq != tc.inseqEnd || ofo != tc.ofoEnd {
			t.Fatalf("seed %v/%v: settled at %v/%v, want %v/%v",
				tc.inseq, tc.ofo, inseq, ofo, tc.inseqEnd, tc.ofoEnd)
		}
	}
}

// TestControllerFirstRaiseUsesHeadroom: from a zero ofo_timeout there is
// no current value to step from, so the first raise goes straight to 1.25x
// the peak lateness.
func TestControllerFirstRaiseUsesHeadroom(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.OfoTimeout = 0
	h := newLoop(t, jcfg)
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	mk := func(seqMSS int) *packet.Packet {
		return &packet.Packet{Flow: ft, Seq: uint32(seqMSS * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK}
	}
	// Packet 1 trails packet 2 by 300us; the zero timeout expires its hole.
	h.recvAt(0, mk(0))
	h.recvAt(time.Microsecond, mk(2))
	h.recvAt(301*time.Microsecond, mk(1))
	h.s.RunFor(1500 * time.Microsecond)
	if _, ofo := h.c.Timeouts(); ofo != 375*time.Microsecond {
		t.Fatalf("ofo = %v after the first raise, want 375us (1.25 x 300us)", ofo)
	}
}

// TestControllerNeedsMinSamples: a tick trusts the estimates only once it
// has measured 64 packets. The same reordered pattern at 48 packets per
// tick leaves inseq_timeout alone and at 66 or more per tick retunes it.
func TestControllerNeedsMinSamples(t *testing.T) {
	for _, tc := range []struct {
		period time.Duration // between 3-packet batches
		moves  bool
	}{
		{62500 * time.Nanosecond, false}, // 48 packets per tick
		{45454 * time.Nanosecond, true},  // 66 to 69 packets per tick
	} {
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout = 15 * time.Microsecond
		h := newLoop(t, jcfg)
		ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
		mk := func(seqMSS int) *packet.Packet {
			return &packet.Packet{Flow: ft, Seq: uint32(seqMSS * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK}
		}
		for i := 0; time.Duration(i)*tc.period < 5*time.Millisecond; i++ {
			base := time.Duration(i) * tc.period
			h.recvAt(base, mk(3*i))
			h.recvAt(base+time.Microsecond, mk(3*i+2))
			h.recvAt(base+20*time.Microsecond, mk(3*i+1))
		}
		h.s.RunFor(5 * time.Millisecond)
		if inseq, _ := h.c.Timeouts(); (inseq != 15*time.Microsecond) != tc.moves {
			t.Fatalf("batch every %v: inseq = %v, want moved = %v", tc.period, inseq, tc.moves)
		}
	}
}
