package chaos

import (
	"fmt"
	"testing"
	"time"

	"juggler/internal/fabric"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

var testFlow = packet.FiveTuple{
	SrcIP: 1, DstIP: 2, SrcPort: 100, DstPort: 200, Proto: packet.ProtoTCP,
}

// collector records delivered packets with timestamps.
type collector struct {
	s    *sim.Sim
	pkts []*packet.Packet
	at   []sim.Time
}

func (c *collector) Deliver(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.s.Now())
}

// sendStream pushes n MSS packets through dst, one per 10us.
func sendStream(s *sim.Sim, dst fabric.Sink, n int) {
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			Flow: testFlow, Seq: 1 + uint32(i)*units.MSS,
			PayloadLen: units.MSS, Flags: packet.FlagACK,
		}
		s.Schedule(time.Duration(i)*10*time.Microsecond, func() { dst.Deliver(p) })
	}
	s.Run()
}

// trace renders one impairment run as a reproducibility fingerprint.
func trace(seed int64, build func(s *sim.Sim, dst fabric.Sink) Impairment) string {
	s := sim.New(seed)
	col := &collector{s: s}
	imp := build(s, col)
	sendStream(s, imp, 400)
	out := fmt.Sprintf("%v|", imp.Stats())
	for i, p := range col.pkts {
		out += fmt.Sprintf("%d@%d,%x;", p.Seq, col.at[i], p.OptSig)
	}
	return out
}

// TestImpairmentsDeterministic: every impairment's full output (packets,
// times, mutations, counters) is a pure function of the seed.
func TestImpairmentsDeterministic(t *testing.T) {
	builds := map[string]func(s *sim.Sim, dst fabric.Sink) Impairment{
		"loss": func(s *sim.Sim, dst fabric.Sink) Impairment {
			return NewLoss(s, 0.1, dst)
		},
		"burstloss": func(s *sim.Sim, dst fabric.Sink) Impairment {
			return NewGilbertElliott(s, 0.05, 0.3, 0.001, 0.6, dst)
		},
		"dup": func(s *sim.Sim, dst fabric.Sink) Impairment {
			return NewDuplicator(s, 0.1, 100*time.Microsecond, dst)
		},
		"corrupt": func(s *sim.Sim, dst fabric.Sink) Impairment {
			return NewCorruptor(s, 0.1, dst)
		},
		"reorder": func(s *sim.Sim, dst fabric.Sink) Impairment {
			return NewReorderer(s, 0.3, 200*time.Microsecond, dst)
		},
	}
	for name, build := range builds {
		a, b := trace(7, build), trace(7, build)
		if a != b {
			t.Errorf("%s: same seed diverged:\n%s\nvs\n%s", name, a, b)
		}
		if c := trace(8, build); c == a {
			t.Errorf("%s: different seeds produced identical runs (impairment inert?)", name)
		}
	}
}

// TestImpairmentsDoSomething: at full probability each element visibly
// transforms the stream.
func TestImpairmentsDoSomething(t *testing.T) {
	s := sim.New(1)
	col := &collector{s: s}
	loss := NewLoss(s, 1, col)
	sendStream(s, loss, 50)
	if len(col.pkts) != 0 || loss.Stats().Dropped != 50 {
		t.Errorf("full loss delivered %d, dropped %d", len(col.pkts), loss.Stats().Dropped)
	}

	s = sim.New(1)
	col = &collector{s: s}
	dup := NewDuplicator(s, 1, 50*time.Microsecond, col)
	sendStream(s, dup, 50)
	if len(col.pkts) != 100 {
		t.Errorf("full duplication delivered %d packets, want 100", len(col.pkts))
	}

	s = sim.New(1)
	col = &collector{s: s}
	cor := NewCorruptor(s, 1, col)
	sendStream(s, cor, 50)
	for _, p := range col.pkts {
		if p.OptSig == 0 {
			t.Fatal("corruptor left an options signature untouched at prob 1")
		}
	}
}

// TestReordererReorders: with enough extra delay, delivery order differs
// from send order while the packet set is preserved.
func TestReordererReorders(t *testing.T) {
	s := sim.New(3)
	col := &collector{s: s}
	r := NewReorderer(s, 0.5, 500*time.Microsecond, col)
	sendStream(s, r, 200)
	if len(col.pkts) != 200 {
		t.Fatalf("reorderer lost packets: %d of 200", len(col.pkts))
	}
	inOrder := true
	for i := 1; i < len(col.pkts); i++ {
		if packet.SeqLess(col.pkts[i].Seq, col.pkts[i-1].Seq) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("reorderer at prob 0.5 delivered 200 packets in order")
	}
}

// deliverSeg feeds one contiguous data segment to the checker.
func deliverSeg(ck *Checker, seq uint32, n int) {
	ck.ObserveSegment(&packet.Segment{Flow: testFlow, Seq: seq, Bytes: n, Pkts: 1})
}

// noteSent registers [seq, seq+n) as sent.
func noteSent(ck *Checker, seq uint32, n int) {
	ck.NoteSent(&packet.Packet{Flow: testFlow, Seq: seq, PayloadLen: n})
}

// TestCheckerOrder: a gap, then a late straggler, each trip the order
// invariant exactly once; clean in-order delivery trips nothing.
func TestCheckerOrder(t *testing.T) {
	s := sim.New(1)
	ck := NewChecker(s, Config{StrictOrder: true})
	noteSent(ck, 1, 3000)
	deliverSeg(ck, 1, 1000)
	deliverSeg(ck, 1001, 1000)
	if ck.Total() != 0 {
		t.Fatalf("in-order delivery flagged: %v", ck.Violations())
	}
	deliverSeg(ck, 2501, 499) // hole at 2001
	if ck.Count(InvOrder) != 1 {
		t.Fatalf("gap not flagged: %v", ck.Violations())
	}
	deliverSeg(ck, 2001, 500) // straggler behind the frontier
	if ck.Count(InvOrder) != 2 {
		t.Fatalf("late straggler not flagged: %v", ck.Violations())
	}
}

// TestCheckerOrderLenient: without StrictOrder the same stream is legal.
func TestCheckerOrderLenient(t *testing.T) {
	s := sim.New(1)
	ck := NewChecker(s, Config{})
	noteSent(ck, 1, 3000)
	deliverSeg(ck, 1, 1000)
	deliverSeg(ck, 2001, 1000)
	deliverSeg(ck, 1001, 1000)
	if ck.Total() != 0 {
		t.Fatalf("lenient mode flagged reordered delivery: %v", ck.Violations())
	}
}

// TestCheckerConservation: delivering bytes never sent — before the ISN,
// past the send frontier, or on an unknown flow — trips conservation.
func TestCheckerConservation(t *testing.T) {
	s := sim.New(1)
	ck := NewChecker(s, Config{})
	noteSent(ck, 1000, 2000) // sent [1000, 3000)
	deliverSeg(ck, 1000, 2000)
	if ck.Total() != 0 {
		t.Fatalf("exact delivery flagged: %v", ck.Violations())
	}
	deliverSeg(ck, 3000, 100) // past the frontier
	if ck.Count(InvConservation) != 1 {
		t.Fatalf("fabricated tail not flagged: %v", ck.Violations())
	}
	deliverSeg(ck, 500, 100) // before the ISN
	if ck.Count(InvConservation) != 2 {
		t.Fatalf("fabricated head not flagged: %v", ck.Violations())
	}
	other := testFlow
	other.SrcPort++
	ck.ObserveSegment(&packet.Segment{Flow: other, Seq: 1, Bytes: 100, Pkts: 1})
	if ck.Count(InvConservation) != 3 {
		t.Fatalf("unknown flow not flagged: %v", ck.Violations())
	}
}

// brokenTable always fails its audit.
type brokenTable struct{ n int }

func (b brokenTable) TableLen() int          { return b.n }
func (b brokenTable) CheckInvariants() error { return fmt.Errorf("leaked %d flows", b.n) }

// okTable always passes.
type okTable struct{}

func (okTable) TableLen() int          { return 0 }
func (okTable) CheckInvariants() error { return nil }

// TestTableProbe: the probe records exactly the failing audits. Counting
// continues past the 64 retained violation records.
func TestTableProbe(t *testing.T) {
	s := sim.New(1)
	ck := NewChecker(s, Config{})
	good := ck.TableProbe("rx0", okTable{})
	bad := ck.TableProbe("rx1", brokenTable{n: 99})
	good()
	if ck.Total() != 0 {
		t.Fatalf("healthy table flagged: %v", ck.Violations())
	}
	bad()
	if ck.Count(InvTable) != 1 {
		t.Fatalf("broken table not flagged: %v", ck.Violations())
	}
	for i := 0; i < 69; i++ {
		bad()
	}
	if ck.Total() != 70 || len(ck.Violations()) != 64 {
		t.Fatalf("total %d, retained %d; want 70, 64", ck.Total(), len(ck.Violations()))
	}
}

// TestQuiescence: a pending event after traffic stops is a violation; a
// drained queue is not.
func TestQuiescence(t *testing.T) {
	s := sim.New(1)
	ck := NewChecker(s, Config{})
	ck.CheckQuiescence()
	if ck.Total() != 0 {
		t.Fatalf("empty queue flagged: %v", ck.Violations())
	}
	s.Schedule(time.Second, func() {})
	ck.CheckQuiescence()
	if ck.Count(InvQuiescence) != 1 {
		t.Fatalf("leaked event not flagged: %v", ck.Violations())
	}
}

// TestScenarioSchedule: steps fire at their offsets in order and are
// logged with timestamps; stateful helpers drive the fabric and NIC.
func TestScenarioSchedule(t *testing.T) {
	s := sim.New(1)
	sc := NewScenario("seq")
	var fired []string
	sc.At(2*time.Millisecond, "second", func() { fired = append(fired, "second") })
	sc.At(time.Millisecond, "first", func() { fired = append(fired, "first") })
	sc.Install(s)
	s.Run()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("steps fired as %v", fired)
	}
	log := sc.Log()
	if len(log) != 2 || log[0] != "[1000.000us] first" || log[1] != "[2000.000us] second" {
		t.Fatalf("unexpected log %v", log)
	}
}

// TestFlapLinkDropsTraffic: while flapped, the port drops; after the flap
// it carries traffic again.
func TestFlapLinkDropsTraffic(t *testing.T) {
	s := sim.New(1)
	col := &collector{s: s}
	port := fabric.NewPort(s, "p", units.Rate10G, 0, fabric.NewDropTail(0), col)
	sc := NewScenario("flap")
	sc.FlapLink(500*time.Microsecond, port, time.Millisecond)
	sc.Install(s)
	sendStream(s, port, 300) // one packet per 10us: 0..3ms
	if port.DroppedDown == 0 {
		t.Fatal("flap dropped no packets")
	}
	if int64(len(col.pkts))+port.DroppedDown != 300 {
		t.Fatalf("delivered %d + dropped %d != 300", len(col.pkts), port.DroppedDown)
	}
	if port.Down() {
		t.Fatal("port still down after the flap window")
	}
}
