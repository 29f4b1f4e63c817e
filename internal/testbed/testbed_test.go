package testbed

import (
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// runBulk drives a single infinite flow over a NetFPGA pair for dur and
// returns the achieved throughput.
func runBulk(t *testing.T, rate units.BitRate, tau time.Duration, kind OffloadKind,
	jcfg core.Config, dur time.Duration) (units.BitRate, *NetFPGAPair, *tcp.Receiver) {
	t.Helper()
	s := sim.New(42)
	rcvCfg := DefaultHostConfig(kind)
	rcvCfg.Juggler = jcfg
	tb := NewNetFPGAPair(s, rate, tau, 0, DefaultHostConfig(OffloadVanilla), rcvCfg)
	snd, rcv := Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
	snd.SetInfinite()
	snd.MaybeSend()
	// Warm up slow start, then measure.
	warm := 50 * time.Millisecond
	s.RunFor(warm)
	startBytes := rcv.Delivered()
	s.RunFor(dur)
	got := units.Throughput(rcv.Delivered()-startBytes, dur)
	return got, tb, rcv
}

func TestSingleFlowLineRateNoReordering(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 52 * time.Microsecond
	got, _, rcv := runBulk(t, units.Rate10G, 0, OffloadJuggler, jcfg, 100*time.Millisecond)
	if got < units.Rate10G*85/100 {
		t.Fatalf("throughput %v, want >= 85%% of 10G", got)
	}
	if rcv.Stats.OOOSegments != 0 {
		t.Fatalf("no reordering configured but %d OOO segments", rcv.Stats.OOOSegments)
	}
}

func TestVanillaLineRateNoReordering(t *testing.T) {
	got, _, _ := runBulk(t, units.Rate10G, 0, OffloadVanilla, core.Config{MaxFlows: 1}, 100*time.Millisecond)
	if got < units.Rate10G*85/100 {
		t.Fatalf("vanilla in-order throughput %v, want >= 85%% of 10G", got)
	}
}

func TestVanillaLosesThroughputUnderReordering(t *testing.T) {
	got, _, rcv := runBulk(t, units.Rate10G, 500*time.Microsecond, OffloadVanilla,
		core.Config{MaxFlows: 1}, 100*time.Millisecond)
	if got > units.Rate10G*75/100 {
		t.Fatalf("vanilla with 500us reordering got %v — should lose significant throughput", got)
	}
	if rcv.Stats.OOOSegments == 0 {
		t.Fatal("expected out-of-order segments at the vanilla receiver")
	}
}

func TestJugglerSustainsThroughputUnderReordering(t *testing.T) {
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 52 * time.Microsecond
	jcfg.OfoTimeout = 600 * time.Microsecond // > tau - tau0
	got, tb, rcv := runBulk(t, units.Rate10G, 500*time.Microsecond, OffloadJuggler, jcfg, 100*time.Millisecond)
	if got < units.Rate10G*85/100 {
		t.Fatalf("juggler with 500us reordering got %v, want >= 85%% of 10G", got)
	}
	// Juggler should hide almost all reordering from TCP.
	frac := float64(rcv.Stats.OOOSegments) / float64(rcv.Stats.SegmentsIn)
	if frac > 0.02 {
		t.Fatalf("%.1f%% OOO segments reached TCP, want ~0", frac*100)
	}
	// And batch effectively despite the reordering.
	c := tb.Receiver.OffloadCounters()
	if c.Segments == 0 || float64(c.Packets)/float64(c.Segments) < 8 {
		t.Fatalf("batching extent %.1f MTUs/segment, want > 8",
			float64(c.Packets)/float64(c.Segments))
	}
}

func TestJugglerSmallOfoTimeoutHurts(t *testing.T) {
	// With ofo_timeout far below the reordering delay, Juggler flushes
	// early and TCP sees reordering again (Figure 13's left region).
	jcfg := core.DefaultConfig()
	jcfg.InseqTimeout = 52 * time.Microsecond
	jcfg.OfoTimeout = 20 * time.Microsecond
	got, _, _ := runBulk(t, units.Rate10G, 750*time.Microsecond, OffloadJuggler, jcfg, 100*time.Millisecond)
	jcfgBig := jcfg
	jcfgBig.OfoTimeout = 1200 * time.Microsecond
	got2, _, _ := runBulk(t, units.Rate10G, 750*time.Microsecond, OffloadJuggler, jcfgBig, 100*time.Millisecond)
	if got >= got2 {
		t.Fatalf("small ofo_timeout (%v) should underperform large (%v)", got, got2)
	}
}

func TestCPUAccountingActive(t *testing.T) {
	jcfg := core.DefaultConfig()
	_, tb, _ := runBulk(t, units.Rate10G, 0, OffloadJuggler, jcfg, 20*time.Millisecond)
	if tb.Receiver.CPU.RX.BusyTotal() == 0 || tb.Receiver.CPU.App.BusyTotal() == 0 {
		t.Fatal("both receiver cores should have accumulated busy time")
	}
	if tb.Sender.CPU.App.BusyTotal() == 0 {
		t.Fatal("sender app core should be charged for ACK processing")
	}
}

func TestClosEndToEndTCP(t *testing.T) {
	s := sim.New(7)
	tb := NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond, QueueBytes: 2 * units.MB,
		UplinkLB: lb.NewPerPacket(s, false),
	})
	a := tb.AddHost(0, DefaultHostConfig(OffloadJuggler))
	b := tb.AddHost(1, DefaultHostConfig(OffloadJuggler))
	snd, rcv := Connect(a, b, tcp.SenderConfig{})
	const total = 4 * units.MB
	snd.Write(total, true)
	s.RunFor(100 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d of %d across the Clos", rcv.Delivered(), total)
	}
	// Per-packet LB must have used both uplinks.
	up := tb.Clos.UplinkPorts(0)
	if up[0].TxPkts == 0 || up[1].TxPkts == 0 {
		t.Fatalf("uplink usage %d/%d — spraying not active", up[0].TxPkts, up[1].TxPkts)
	}
}

func TestBackgroundLoadFillsUplinks(t *testing.T) {
	s := sim.New(3)
	tb := NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate10G,
		UplinkLB: lb.NewPerPacket(s, true),
	})
	// Two background pairs at 2.5G each = 5G offered over 2x10G uplinks
	// (25% average load).
	tb.AddBackgroundPair(0, 1, 2500*units.Mbps)
	tb.AddBackgroundPair(0, 1, 2500*units.Mbps)
	s.RunFor(50 * time.Millisecond)
	up := tb.Clos.UplinkPorts(0)
	total := up[0].TxBytes + up[1].TxBytes
	got := units.Throughput(total, 50*time.Millisecond)
	if got < 4*units.Gbps || got > 6*units.Gbps {
		t.Fatalf("background load %v, want ~5Gb/s", got)
	}
}

func TestRPCStreamLatencyTracking(t *testing.T) {
	s := sim.New(11)
	tb := NewNetFPGAPair(s, units.Rate10G, 0, 0,
		DefaultHostConfig(OffloadVanilla), DefaultHostConfig(OffloadJuggler))
	snd, rcv := Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
	lat := stats.NewSampler(64)
	stream := workload.NewRPCStream(s, snd, rcv, lat)
	for i := 0; i < 20; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Millisecond, func() { stream.Send(10 * units.KB) })
	}
	s.RunFor(100 * time.Millisecond)
	if stream.Completed != 20 {
		t.Fatalf("completed %d of 20 RPCs", stream.Completed)
	}
	if stream.Outstanding() != 0 {
		t.Fatal("no RPCs should be pending")
	}
	if lat.Median() <= 0 || lat.Median() > 0.01 {
		t.Fatalf("median latency %.6fs out of plausible range", lat.Median())
	}
}

func TestPoissonRPCGenRate(t *testing.T) {
	s := sim.New(13)
	tb := NewNetFPGAPair(s, units.Rate10G, 0, 0,
		DefaultHostConfig(OffloadVanilla), DefaultHostConfig(OffloadJuggler))
	snd, rcv := Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
	stream := workload.NewRPCStream(s, snd, rcv, nil)
	gen := workload.NewPoissonRPCGen(s, []*workload.RPCStream{stream}, 150, 10000)
	gen.Start()
	s.RunFor(100 * time.Millisecond)
	gen.Stop()
	// ~1000 expected; Poisson std ~32.
	if gen.Generated < 800 || gen.Generated > 1200 {
		t.Fatalf("generated %d RPCs, want ~1000", gen.Generated)
	}
	if stream.Completed < gen.Generated*9/10 {
		t.Fatalf("completed %d of %d", stream.Completed, gen.Generated)
	}
}

func TestDropInjectorWithJugglerRecovers(t *testing.T) {
	s := sim.New(5)
	rcvCfg := DefaultHostConfig(OffloadJuggler)
	tb := NewNetFPGAPair(s, units.Rate10G, 250*time.Microsecond, 0.001,
		DefaultHostConfig(OffloadVanilla), rcvCfg)
	snd, rcv := Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
	const total = 2 * units.MB
	snd.Write(total, true)
	s.RunFor(500 * time.Millisecond)
	if rcv.Delivered() != total {
		t.Fatalf("delivered %d of %d with 0.1%% drops", rcv.Delivered(), total)
	}
	if tb.Drops.Dropped == 0 {
		t.Fatal("drop injector never fired")
	}
}

func TestJugglerFlowTableStaysTiny(t *testing.T) {
	// 64 concurrent flows through the delay switch: the active list should
	// stay far below the number of connections (§5.2.2).
	s := sim.New(9)
	rcvCfg := DefaultHostConfig(OffloadJuggler)
	rcvCfg.Juggler.OfoTimeout = 600 * time.Microsecond
	tb := NewNetFPGAPair(s, units.Rate10G, 500*time.Microsecond, 0,
		DefaultHostConfig(OffloadVanilla), rcvCfg)
	const flows = 64
	for i := 0; i < flows; i++ {
		snd, _ := Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{
			PaceRate: units.Rate10G / flows,
		})
		snd.SetInfinite()
		snd.MaybeSend()
	}
	var h stats.Hist
	tick := sim.NewTicker(s, 100*time.Microsecond, func() {
		h.Observe(tb.Receiver.JugglerActiveLen())
	})
	tick.Start()
	s.RunFor(200 * time.Millisecond)
	p99 := h.Quantile(0.99)
	if p99 >= flows {
		t.Fatalf("active list p99 = %d with %d flows — tracking everything", p99, flows)
	}
	if p99 > 40 {
		t.Fatalf("active list p99 = %d, paper expects < ~35", p99)
	}
}

// TestHostDispatchZeroAlloc pins the host's segment path at zero
// allocations in steady state: offload upcall -> app-core job -> dispatch
// -> segment back to the pool, with no closure minted per segment.
func TestHostDispatchZeroAlloc(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", DefaultHostConfig(OffloadNone))
	delivered := 0
	h.DeliverTap = func(*packet.Segment) { delivered++ }
	upcall := func() {
		for i := 0; i < 4; i++ { // a short backlog on the app core
			seg := h.segPool.Get()
			seg.Bytes, seg.Pkts = units.MSS, 1
			h.onSegment(seg)
		}
		s.Run()
	}
	for i := 0; i < 16; i++ {
		upcall()
	}
	if allocs := testing.AllocsPerRun(200, upcall); allocs != 0 {
		t.Errorf("4 segments through onSegment -> app core -> dispatch allocate %v objects, want 0", allocs)
	}
	if delivered == 0 || h.DroppedSegs != 0 || h.SegPoolLive() != 0 {
		t.Fatalf("delivered=%d dropped=%d live=%d", delivered, h.DroppedSegs, h.SegPoolLive())
	}
}
