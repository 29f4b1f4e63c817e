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

func newLoop(t *testing.T, jcfg core.Config, ccfg Config) *loopHarness {
	t.Helper()
	h := &loopHarness{s: sim.New(1)}
	pool := packet.SegPoolFromSim(h.s)
	h.j = core.New(h.s, jcfg, func(seg *packet.Segment) { pool.Put(seg) })
	h.c = NewController(h.s, ccfg)
	h.t = h.c.Wrap(h.j)
	return h
}

func (h *loopHarness) recvAt(d time.Duration, p *packet.Packet) {
	h.s.Schedule(d, func() { h.t.ReceiveBatch([]*packet.Packet{p}) })
}

// TestControllerSeedsFromJuggler: the first wrapped instance defines the
// loop's starting point.
func TestControllerSeedsFromJuggler(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 33 * time.Microsecond
	jcfg.OfoTimeout = 170 * time.Microsecond
	h := newLoop(t, jcfg, DefaultConfig())
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
	ccfg := DefaultConfig()
	ccfg.MinSamples = 8
	h := newLoop(t, jcfg, ccfg)

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
	ccfg := DefaultConfig()
	ccfg.MinSamples = 8
	h := newLoop(t, jcfg, ccfg)

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
	h := newLoop(t, core.DefaultConfig(), DefaultConfig())
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
	ccfg := DefaultConfig()
	ccfg.MinSamples = 4
	ccfg.QuietWindows = 3
	ccfg.IdleFrac = 0.25
	h := newLoop(t, jcfg, ccfg)

	// 12 flows send a short in-order burst each, then go idle; a
	// background flow keeps ticking the loop.
	for f := 0; f < 12; f++ {
		ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(100 + f), DstPort: 4, Proto: packet.ProtoTCP}
		for i := 0; i < 3; i++ {
			h.recvAt(time.Duration(f*10+i)*10*time.Microsecond,
				&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
		}
	}
	bg := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 99, DstPort: 4, Proto: packet.ProtoTCP}
	for i := 0; i < 100; i++ {
		h.recvAt(time.Duration(i)*100*time.Microsecond,
			&packet.Packet{Flow: bg, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
	h.s.RunFor(20 * time.Millisecond)

	bound := int(ccfg.IdleFrac * float64(jcfg.MaxFlows)) // 4
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
// windows decay ofo_timeout back down instead of leaving it pinned.
func TestControllerRelaxesToFloors(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 15 * time.Microsecond
	jcfg.OfoTimeout = 600 * time.Microsecond
	ccfg := DefaultConfig()
	ccfg.MinSamples = 4
	ccfg.QuietWindows = 3
	h := newLoop(t, jcfg, ccfg)

	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: packet.ProtoTCP}
	// Purely in-order traffic for many windows.
	for i := 0; i < 300; i++ {
		h.recvAt(time.Duration(i)*100*time.Microsecond,
			&packet.Packet{Flow: ft, Seq: uint32(i * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK})
	}
	h.s.RunFor(40 * time.Millisecond)

	_, ofo := h.c.Timeouts()
	if ofo >= 600*time.Microsecond {
		t.Fatalf("ofo = %v, want decayed toward %v on quiet traffic", ofo, ccfg.MinOfo)
	}
}
