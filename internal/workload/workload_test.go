package workload

import (
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/units"
)

var flow = packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 5, DstPort: 80, Proto: packet.ProtoTCP}

type nullPS struct{}

func (nullPS) SendTSO(packet.Packet, uint32, int) {}
func (nullPS) SendRaw(*packet.Packet)             {}

func TestRPCStreamCompletionOrder(t *testing.T) {
	s := sim.New(1)
	snd := tcp.NewSender(s, tcp.SenderConfig{}, flow, nullPS{})
	rcv := tcp.NewReceiver(s, flow, func(*packet.Packet) {})
	stream := NewRPCStream(s, snd, rcv, nil)

	stream.Send(1000)
	s.RunFor(time.Millisecond)
	stream.Send(2000)
	if stream.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", stream.Outstanding())
	}
	// Deliver the first message's bytes.
	rcv.OnSegment(&packet.Segment{Flow: flow, Seq: 1, Bytes: 1000, Pkts: 1})
	if stream.Completed != 1 || stream.Outstanding() != 1 {
		t.Fatalf("completed=%d outstanding=%d", stream.Completed, stream.Outstanding())
	}
	if got := stream.Latency.Max(); got < 0.0009 || got > 0.0011 {
		t.Fatalf("latency %.6fs, want ~1ms", got)
	}
	// Second message completes in one delivery.
	rcv.OnSegment(&packet.Segment{Flow: flow, Seq: 1001, Bytes: 2000, Pkts: 2})
	if stream.Completed != 2 || stream.Outstanding() != 0 {
		t.Fatalf("completed=%d outstanding=%d", stream.Completed, stream.Outstanding())
	}
}

func TestRPCStreamBatchCompletion(t *testing.T) {
	// One delivery can complete several queued messages at once.
	s := sim.New(1)
	snd := tcp.NewSender(s, tcp.SenderConfig{}, flow, nullPS{})
	rcv := tcp.NewReceiver(s, flow, func(*packet.Packet) {})
	stream := NewRPCStream(s, snd, rcv, nil)
	for i := 0; i < 5; i++ {
		stream.Send(100)
	}
	rcv.OnSegment(&packet.Segment{Flow: flow, Seq: 1, Bytes: 500, Pkts: 1})
	if stream.Completed != 5 {
		t.Fatalf("completed = %d, want 5", stream.Completed)
	}
}

func TestPoissonGapsAreExponential(t *testing.T) {
	s := sim.New(3)
	snd := tcp.NewSender(s, tcp.SenderConfig{}, flow, nullPS{})
	rcv := tcp.NewReceiver(s, flow, func(*packet.Packet) {})
	stream := NewRPCStream(s, snd, rcv, nil)
	g := NewPoissonRPCGen(s, []*RPCStream{stream}, 100, 1e6) // 1M RPC/s -> mean gap 1us
	g.Start()
	s.RunFor(20 * time.Millisecond)
	g.Stop()
	// Expect ~20000 arrivals; allow generous Poisson slack.
	if g.Generated < 18000 || g.Generated > 22000 {
		t.Fatalf("generated %d, want ~20000", g.Generated)
	}
}

func TestBackgroundRate(t *testing.T) {
	s := sim.New(9)
	var pkts int64
	var bytes int64
	out := sinkFunc(func(p *packet.Packet) {
		pkts++
		bytes += int64(p.WireLen())
	})
	f := flow
	f.Proto = packet.ProtoUDP
	bg := NewBackground(s, out, f, 2*units.Gbps)
	bg.Start()
	s.RunFor(50 * time.Millisecond)
	bg.Stop()
	got := units.Throughput(bytes, 50*time.Millisecond)
	if got < 17*units.Gbps/10 || got > 23*units.Gbps/10 {
		t.Fatalf("background rate %v, want ~2Gb/s", got)
	}
	if bg.Sent != pkts {
		t.Fatalf("sent %d != delivered %d", bg.Sent, pkts)
	}
}

type sinkFunc func(p *packet.Packet)

func (f sinkFunc) SendRaw(p *packet.Packet) { f(p) }

func TestBackgroundStopsCleanly(t *testing.T) {
	s := sim.New(9)
	n := int64(0)
	bg := NewBackground(s, sinkFunc(func(*packet.Packet) { n++ }), flow, units.Gbps)
	bg.Start()
	s.RunFor(time.Millisecond)
	bg.Stop()
	before := n
	s.RunFor(10 * time.Millisecond)
	if n != before {
		t.Fatal("background kept sending after Stop")
	}
}

func TestSizeDistSamplingAndMeans(t *testing.T) {
	rng := sim.New(3).Rand()
	check := func(name string, d SizeDist, lo, hi int) {
		t.Helper()
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := d.Sample(rng)
			if v < lo || v > hi {
				t.Fatalf("%s: sample %d outside [%d,%d]", name, v, lo, hi)
			}
			sum += float64(v)
		}
		got := sum / n
		want := float64(lo+hi) / 2 // a uniform draw's mean
		if got < want*0.85 || got > want*1.15 {
			t.Fatalf("%s: empirical mean %.0f vs analytic %.0f", name, got, want)
		}
	}
	check("uniform", Uniform{Lo: 100, Hi: 900}, 100, 900)
	check("degenerate uniform", Uniform{Lo: 5, Hi: 5}, 5, 5)
}

func TestPoissonGenWithDist(t *testing.T) {
	s := sim.New(3)
	snd := tcp.NewSender(s, tcp.SenderConfig{}, flow, nullPS{})
	rcv := tcp.NewReceiver(s, flow, func(*packet.Packet) {})
	stream := NewRPCStream(s, snd, rcv, nil)
	g := NewPoissonRPCGen(s, []*RPCStream{stream}, 100, 1e5)
	g.Dist = Uniform{Lo: 50, Hi: 150}
	g.Start()
	s.RunFor(10 * time.Millisecond)
	g.Stop()
	if g.Generated < 500 {
		t.Fatalf("generated %d", g.Generated)
	}
	// Sent bytes should average ~100/RPC.
	mean := float64(snd.StreamEnd()) / float64(g.Generated)
	if mean < 80 || mean > 120 {
		t.Fatalf("mean RPC size %.1f, want ~100", mean)
	}
}

func TestShedLoadWindowing(t *testing.T) {
	s := sim.New(7)
	snd := tcp.NewSender(s, tcp.SenderConfig{}, flow, nullPS{})
	rcv := tcp.NewReceiver(s, flow, func(*packet.Packet) {})
	stream := NewRPCStream(s, snd, rcv, nil)
	g := NewPoissonRPCGen(s, []*RPCStream{stream}, 100, 1e5)
	g.MaxOutstanding = 2
	g.Start()
	s.RunFor(5 * time.Millisecond) // nothing ever completes: must shed
	g.Stop()
	if g.Shed == 0 {
		t.Fatal("saturated streams should shed arrivals")
	}
	if stream.Outstanding() > 2 {
		t.Fatalf("outstanding %d exceeds the window", stream.Outstanding())
	}
}
