package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

var flow = packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: packet.ProtoTCP}

// pipe is a minimal loopback wire: data packets reach the receiver after
// delay (optionally dropped/reordered); ACKs return to the sender after
// delay. It bypasses NIC and GRO so the TCP logic is tested in isolation.
type pipe struct {
	s     *sim.Sim
	delay time.Duration
	snd   *Sender
	rcv   *Receiver

	// drop drops the data packet with the given 0-based wire index.
	drop map[int64]bool
	// markCE sets the CE bit on all delivered data packets.
	markCE bool
	// extraDelay adds delay to specific wire indices (reordering).
	extraDelay map[int64]time.Duration
	sent       int64
}

func (p *pipe) SendTSO(tmpl packet.Packet, seq uint32, n int) {
	for off := 0; off < n; off += units.MSS {
		m := units.MSS
		if off+m > n {
			m = n - off
		}
		pk := tmpl
		pk.Seq = seq + uint32(off)
		pk.PayloadLen = m
		if off+m < n {
			pk.Flags &^= packet.FlagPSH
		}
		idx := p.sent
		p.sent++
		if p.drop[idx] {
			continue
		}
		d := p.delay + p.extraDelay[idx]
		pk2 := pk
		if p.markCE {
			pk2.CE = true
		}
		p.s.Schedule(d, func() { p.rcv.OnSegment(packet.FromPacket(&pk2)) })
	}
}

func (p *pipe) SendRaw(pk *packet.Packet) {
	pk2 := *pk
	p.s.Schedule(p.delay, func() { p.rcv.OnSegment(packet.FromPacket(&pk2)) })
}

// newLoop builds a sender/receiver pair over a pipe with the given one-way
// delay.
func newLoop(s *sim.Sim, cfg SenderConfig, delay time.Duration) (*Sender, *Receiver, *pipe) {
	p := &pipe{s: s, delay: delay, drop: map[int64]bool{}, extraDelay: map[int64]time.Duration{}}
	snd := NewSender(s, cfg, flow, p)
	rcv := NewReceiver(s, flow, func(ack *packet.Packet) {
		a := *ack
		s.Schedule(delay, func() { snd.OnAck(packet.FromPacket(&a)) })
	})
	p.snd, p.rcv = snd, rcv
	return snd, rcv, p
}

func TestBulkTransferCompletes(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _ := newLoop(s, SenderConfig{}, 50*time.Microsecond)
	const total = 1 << 20
	snd.Write(total, true)
	s.RunFor(time.Second)
	if !snd.Done() {
		t.Fatalf("transfer incomplete: una=%d lim=%d", snd.sndUna, snd.sndLim)
	}
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d", rcv.Delivered(), total)
	}
	if rcv.Stats.OOOSegments != 0 {
		t.Fatal("clean pipe should see no OOO segments")
	}
}

func TestSlowStartGrowth(t *testing.T) {
	s := sim.New(1)
	snd, _, _ := newLoop(s, SenderConfig{}, 100*time.Microsecond)
	snd.SetInfinite()
	start := snd.Cwnd()
	snd.MaybeSend()
	s.RunFor(2 * time.Millisecond) // ~10 RTTs
	if snd.Cwnd() <= start*4 {
		t.Fatalf("cwnd = %d after 10 RTTs, started %d: slow start not growing", snd.Cwnd(), start)
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{}, 50*time.Microsecond)
	p.drop[4] = true // drop the 5th wire packet once
	const total = 64 * units.KB
	snd.Write(total, true)
	s.RunFor(100 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d", rcv.Delivered(), total)
	}
	if snd.Stats.FastRetransmits != 1 {
		t.Fatalf("fast retransmits = %d, want 1", snd.Stats.FastRetransmits)
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatalf("timeouts = %d, recovery should not need RTO", snd.Stats.Timeouts)
	}
}

func TestTLPRecoversTailLoss(t *testing.T) {
	// A dropped final packet draws no dupACKs; the tail loss probe (not a
	// full RTO) must recover it.
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{}, 50*time.Microsecond)
	const total = 10 * units.MSS
	p.drop[9] = true // last packet: no dupacks possible
	snd.Write(total, true)
	s.RunFor(100 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d", rcv.Delivered(), total)
	}
	if snd.Stats.TLPProbes == 0 {
		t.Fatal("tail loss should be recovered by the tail loss probe")
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatal("the probe should fire well before the RTO")
	}
}

func TestRTORecoversTailLossWithoutTLP(t *testing.T) {
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{DisableTLP: true}, 50*time.Microsecond)
	const total = 10 * units.MSS
	p.drop[9] = true
	snd.Write(total, true)
	s.RunFor(300 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d, want %d", rcv.Delivered(), total)
	}
	if snd.Stats.Timeouts == 0 {
		t.Fatal("with TLP disabled, tail loss must fall back to RTO")
	}
}

func TestEarlyRetransmitSmallFlight(t *testing.T) {
	// Three-segment transfer with the middle one dropped: only one dupACK
	// is possible, so classic Reno would need an RTO; early retransmit
	// lowers the threshold.
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{DisableTLP: true}, 50*time.Microsecond)
	p.drop[1] = true
	snd.Write(3*units.MSS, true)
	s.RunFor(100 * time.Millisecond)
	if rcv.Delivered() != 3*units.MSS {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
	if snd.Stats.FastRetransmits == 0 {
		t.Fatal("early retransmit should have fired on a single dupACK")
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatal("no RTO should be needed")
	}
}

func TestReorderingTriggersSpuriousRetransmit(t *testing.T) {
	// The vanilla-kernel pathology: displacement > dupack threshold causes
	// a spurious fast retransmit even though nothing was lost.
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{}, 50*time.Microsecond)
	p.extraDelay[2] = 300 * time.Microsecond // packet 2 arrives after 3,4,5...
	const total = 20 * units.MSS
	snd.Write(total, true)
	s.RunFor(50 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d", rcv.Delivered())
	}
	if snd.Stats.FastRetransmits == 0 {
		t.Fatal("reordering past the dupack threshold should trigger a spurious fast retransmit")
	}
	if snd.Stats.DupAcks < 3 {
		t.Fatalf("dupacks = %d", snd.Stats.DupAcks)
	}
}

func TestAckPerSegment(t *testing.T) {
	s := sim.New(1)
	snd, rcv, _ := newLoop(s, SenderConfig{}, 10*time.Microsecond)
	const total = 10 * units.MSS
	snd.Write(total, true)
	s.RunFor(50 * time.Millisecond)
	// The pipe delivers one segment per packet: one ACK per segment.
	if rcv.Stats.AcksSent != rcv.Stats.SegmentsIn {
		t.Fatalf("acks=%d segments=%d, want equal", rcv.Stats.AcksSent, rcv.Stats.SegmentsIn)
	}
	if rcv.Stats.SegmentsIn != 10 {
		t.Fatalf("segments = %d", rcv.Stats.SegmentsIn)
	}
}

func TestPacingLimitsRate(t *testing.T) {
	s := sim.New(1)
	cfg := SenderConfig{PaceRate: units.Gbps} // 1 Gb/s
	snd, rcv, _ := newLoop(s, cfg, 10*time.Microsecond)
	snd.SetInfinite()
	snd.MaybeSend()
	s.RunFor(100 * time.Millisecond)
	got := units.Throughput(rcv.Delivered(), 100*time.Millisecond)
	if got > units.Gbps*11/10 {
		t.Fatalf("rate %v exceeds 1Gb/s pace", got)
	}
	if got < units.Gbps*8/10 {
		t.Fatalf("rate %v far below pace (should be near line)", got)
	}
}

func TestDCTCPReducesWindowOnMarks(t *testing.T) {
	s := sim.New(1)
	cfg := SenderConfig{ECN: true}
	snd, _, p := newLoop(s, cfg, 50*time.Microsecond)
	snd.SetInfinite()
	snd.MaybeSend()
	s.RunFor(3 * time.Millisecond)
	before := snd.Cwnd()
	p.markCE = true // congested stretch: every data packet CE-marked
	s.RunFor(3 * time.Millisecond)
	if snd.Stats.ECNReductions == 0 {
		t.Fatal("persistent CE marks should reduce the window")
	}
	if snd.Cwnd() >= before {
		t.Fatalf("cwnd %d not reduced from %d", snd.Cwnd(), before)
	}
	// With every byte marked, DCTCP alpha climbs toward 1 and the window
	// stays suppressed (near halving per RTT), not growing.
	mid := snd.Cwnd()
	s.RunFor(2 * time.Millisecond)
	if snd.Cwnd() > mid*2 {
		t.Fatal("window should stay suppressed under persistent marking")
	}
}

func TestMessageBoundariesCarryPSH(t *testing.T) {
	s := sim.New(1)
	var wire []*packet.Packet
	ps := &capturePS{s: s, out: &wire}
	snd := NewSender(s, SenderConfig{}, flow, ps)
	snd.Write(2*units.MSS, true) // message 1
	snd.Write(units.MSS, true)   // message 2
	// No ACKs ever return on this capture harness; inspect the first
	// transmission only (the RTO would retransmit forever under Run).
	if len(wire) < 3 {
		t.Fatalf("packets = %d", len(wire))
	}
	wire = wire[:3]
	if wire[0].Flags.Has(packet.FlagPSH) {
		t.Fatal("mid-message packet must not carry PSH")
	}
	if !wire[1].Flags.Has(packet.FlagPSH) || !wire[2].Flags.Has(packet.FlagPSH) {
		t.Fatal("message-final packets must carry PSH")
	}
}

type capturePS struct {
	s   *sim.Sim
	out *[]*packet.Packet
}

func (c *capturePS) SendTSO(tmpl packet.Packet, seq uint32, n int) {
	for off := 0; off < n; off += units.MSS {
		m := units.MSS
		if off+m > n {
			m = n - off
		}
		p := tmpl
		p.Seq = seq + uint32(off)
		p.PayloadLen = m
		if off+m < n {
			p.Flags &^= packet.FlagPSH
		}
		*c.out = append(*c.out, &p)
	}
}

func (c *capturePS) SendRaw(p *packet.Packet) { *c.out = append(*c.out, p) }

func TestReceiverReassemblyOutOfOrder(t *testing.T) {
	s := sim.New(1)
	var acks []*packet.Packet
	rcv := NewReceiver(s, flow, func(p *packet.Packet) { acks = append(acks, p) })
	seg := func(seqMSS, nMSS int) *packet.Segment {
		return &packet.Segment{Flow: flow, Seq: 1 + uint32(seqMSS*units.MSS), Bytes: nMSS * units.MSS, Pkts: nMSS}
	}
	rcv.OnSegment(seg(2, 1)) // OOO
	if rcv.Delivered() != 0 || rcv.Stats.OOOSegments != 1 {
		t.Fatalf("delivered=%d ooo=%d", rcv.Delivered(), rcv.Stats.OOOSegments)
	}
	if acks[0].AckSeq != 1 {
		t.Fatal("OOO segment should produce a duplicate ACK at rcvNxt")
	}
	if acks[0].SACKStart == 0 {
		t.Fatal("dup ACK should carry a SACK block")
	}
	rcv.OnSegment(seg(0, 1))
	if rcv.Delivered() != int64(units.MSS) {
		t.Fatalf("delivered = %d", rcv.Delivered())
	}
	rcv.OnSegment(seg(1, 1)) // fills the hole; pulls buffered range
	if rcv.Delivered() != int64(3*units.MSS) {
		t.Fatalf("delivered = %d, want 3 MSS", rcv.Delivered())
	}
	if got := acks[len(acks)-1].AckSeq; got != 1+uint32(3*units.MSS) {
		t.Fatalf("final ack = %d", got)
	}
}

func TestReceiverDuplicateSegments(t *testing.T) {
	s := sim.New(1)
	rcv := NewReceiver(s, flow, func(*packet.Packet) {})
	seg := &packet.Segment{Flow: flow, Seq: 1, Bytes: units.MSS, Pkts: 1}
	rcv.OnSegment(seg)
	seg2 := &packet.Segment{Flow: flow, Seq: 1, Bytes: units.MSS, Pkts: 1}
	rcv.OnSegment(seg2)
	if rcv.Stats.DupSegments != 1 {
		t.Fatalf("dup segments = %d", rcv.Stats.DupSegments)
	}
	if rcv.Delivered() != int64(units.MSS) {
		t.Fatal("duplicates must not advance delivery")
	}
}

func TestReceiverLinkedListRanges(t *testing.T) {
	s := sim.New(1)
	rcv := NewReceiver(s, flow, func(*packet.Packet) {})
	// One linked-list segment carrying [0,1) and [2,3) MSS ranges.
	seg := &packet.Segment{
		Flow: flow, Seq: 1, Bytes: 2 * units.MSS, Pkts: 2,
		Kind: packet.MergeLinkedList,
		Ranges: []packet.Range{
			{Seq: 1, Len: units.MSS},
			{Seq: 1 + uint32(2*units.MSS), Len: units.MSS},
		},
	}
	rcv.OnSegment(seg)
	if rcv.Delivered() != int64(units.MSS) {
		t.Fatalf("delivered = %d, want 1 MSS (second range buffered)", rcv.Delivered())
	}
	if rcv.OOORanges() != 1 {
		t.Fatal("second range should be buffered out of order")
	}
}

// Property: delivering a random permutation of the MSS chunks of a stream
// (as single-packet segments) always reassembles exactly, with the final
// ACK at stream end.
func TestPropertyReassemblyPermutation(t *testing.T) {
	f := func(perm []uint8, nRaw uint8) bool {
		n := int(nRaw)%24 + 1
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, p := range perm {
			if i >= n {
				break
			}
			jdx := int(p) % n
			order[i], order[jdx] = order[jdx], order[i]
		}
		s := sim.New(5)
		var lastAck uint32
		rcv := NewReceiver(s, flow, func(p *packet.Packet) { lastAck = p.AckSeq })
		for _, idx := range order {
			rcv.OnSegment(&packet.Segment{
				Flow: flow, Seq: 1 + uint32(idx*units.MSS), Bytes: units.MSS, Pkts: 1,
			})
		}
		return rcv.Delivered() == int64(n*units.MSS) && lastAck == 1+uint32(n*units.MSS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDoneAndOffset(t *testing.T) {
	s := sim.New(1)
	snd, _, _ := newLoop(s, SenderConfig{}, 10*time.Microsecond)
	snd.Write(100, true)
	if snd.Done() {
		t.Fatal("not done before ACKs")
	}
	s.RunFor(10 * time.Millisecond)
	if !snd.Done() {
		t.Fatal("should be done")
	}
	if snd.Offset(snd.sndUna) != 100 {
		t.Fatalf("offset = %d", snd.Offset(snd.sndUna))
	}
}

func TestThroughputRecoversAfterLossBurst(t *testing.T) {
	s := sim.New(1)
	snd, rcv, p := newLoop(s, SenderConfig{}, 50*time.Microsecond)
	for i := int64(20); i < 25; i++ {
		p.drop[i] = true
	}
	snd.Write(256*units.KB, true)
	s.RunFor(time.Second)
	if rcv.Delivered() != 256*units.KB {
		t.Fatalf("delivered %d after loss burst", rcv.Delivered())
	}
	if !snd.Done() {
		t.Fatal("sender should complete after recovery")
	}
}
