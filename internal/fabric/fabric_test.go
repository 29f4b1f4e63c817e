package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

func mkPkt(src, dst uint32, seq uint32, n int) *packet.Packet {
	return &packet.Packet{
		Flow: packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP},
		Seq:  seq, PayloadLen: n,
	}
}

type collector struct {
	pkts []*packet.Packet
	at   []sim.Time
	s    *sim.Sim
}

func (c *collector) Deliver(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	if c.s != nil {
		c.at = append(c.at, c.s.Now())
	}
}

func TestDropTailCapacityAndDrops(t *testing.T) {
	q := NewDropTail(3 * units.MTU)
	for i := 0; i < 3; i++ {
		if !q.Enqueue(mkPkt(1, 2, 0, units.MSS)) {
			t.Fatalf("packet %d should fit", i)
		}
	}
	if q.Enqueue(mkPkt(1, 2, 0, units.MSS)) {
		t.Fatal("fourth packet should be dropped")
	}
	if q.Drops != 1 {
		t.Fatalf("drops = %d", q.Drops)
	}
	if q.Len() != 3 || q.Bytes() != 3*units.MTU {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(0)
	for i := uint32(0); i < 5; i++ {
		q.Enqueue(mkPkt(1, 2, i, 100))
	}
	for i := uint32(0); i < 5; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d got %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestECNMarking(t *testing.T) {
	q := NewECN(0, 2*units.MTU)
	p1 := mkPkt(1, 2, 0, units.MSS)
	p2 := mkPkt(1, 2, 1, units.MSS)
	p3 := mkPkt(1, 2, 2, units.MSS)
	q.Enqueue(p1)
	q.Enqueue(p2)
	q.Enqueue(p3) // arrives to find 2*MTU queued -> marked
	if p1.CE || p2.CE {
		t.Fatal("early packets must not be marked")
	}
	if !p3.CE {
		t.Fatal("packet above threshold must be CE-marked")
	}
}

func TestStrictPriorityOrder(t *testing.T) {
	q := NewStrictPriority(0, 0)
	lo := mkPkt(1, 2, 10, 100)
	lo.Priority = packet.PrioLow
	hi := mkPkt(1, 2, 20, 100)
	hi.Priority = packet.PrioHigh
	q.Enqueue(lo)
	q.Enqueue(hi)
	if p := q.Dequeue(); p != hi {
		t.Fatal("high priority must dequeue first")
	}
	if p := q.Dequeue(); p != lo {
		t.Fatal("low priority second")
	}
}

func TestFIFOCompaction(t *testing.T) {
	q := NewDropTail(0)
	// Push/pop enough to trigger ring compaction.
	for i := 0; i < 5000; i++ {
		q.Enqueue(mkPkt(1, 2, uint32(i), 100))
		p := q.Dequeue()
		if p == nil || p.Seq != uint32(i) {
			t.Fatalf("iteration %d: got %v", i, p)
		}
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("queue should be empty: len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestPortSerialization(t *testing.T) {
	s := sim.New(1)
	dst := &collector{s: s}
	pt := NewPort(s, "p", units.Rate10G, 0, nil, dst)
	// Two MTU packets back to back: second delivered one TxTime later.
	pt.Send(mkPkt(1, 2, 0, units.MSS))
	pt.Send(mkPkt(1, 2, 1, units.MSS))
	s.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	tx := units.TxTime(units.MTU, units.Rate10G)
	if dst.at[0] != sim.Time(tx) || dst.at[1] != sim.Time(2*tx) {
		t.Fatalf("delivery times %v, want %v and %v", dst.at, tx, 2*tx)
	}
	if pt.TxPkts != 2 || pt.TxBytes != int64(2*units.MTU) {
		t.Fatalf("tx stats: %d pkts %d bytes", pt.TxPkts, pt.TxBytes)
	}
}

func TestPortPropagationDelay(t *testing.T) {
	s := sim.New(1)
	dst := &collector{s: s}
	prop := 500 * time.Nanosecond
	pt := NewPort(s, "p", units.Rate40G, prop, nil, dst)
	pt.Send(mkPkt(1, 2, 0, units.MSS))
	s.Run()
	want := sim.Time(units.TxTime(units.MTU, units.Rate40G) + prop)
	if dst.at[0] != want {
		t.Fatalf("delivered at %v, want %v", dst.at[0], want)
	}
}

func TestPortWorkConserving(t *testing.T) {
	s := sim.New(1)
	dst := &collector{s: s}
	pt := NewPort(s, "p", units.Rate10G, 0, nil, dst)
	pt.Send(mkPkt(1, 2, 0, units.MSS))
	s.Run()
	// Port went idle; a later packet must start transmitting immediately.
	if !pt.Idle() {
		t.Fatal("port should be idle")
	}
	start := s.Now()
	pt.Send(mkPkt(1, 2, 1, units.MSS))
	s.Run()
	if got := dst.at[1] - start; got != sim.Time(units.TxTime(units.MTU, units.Rate10G)) {
		t.Fatalf("second packet took %v", got)
	}
}

func TestSwitchRoutingAndECMPFallback(t *testing.T) {
	s := sim.New(1)
	a, b := &collector{s: s}, &collector{s: s}
	sw := NewSwitch(s, "sw")
	pa := NewPort(s, "a", units.Rate10G, 0, nil, a)
	pb := NewPort(s, "b", units.Rate10G, 0, nil, b)
	sw.AddRoute(100, pa)
	sw.AddRoute(200, pb)
	sw.Deliver(mkPkt(1, 100, 0, 100))
	sw.Deliver(mkPkt(1, 200, 0, 100))
	sw.Deliver(mkPkt(1, 999, 0, 100)) // unrouted
	s.Run()
	if len(a.pkts) != 1 || len(b.pkts) != 1 {
		t.Fatalf("a=%d b=%d", len(a.pkts), len(b.pkts))
	}
	if sw.Unrouted != 1 {
		t.Fatalf("unrouted = %d", sw.Unrouted)
	}
}

func TestSwitchECMPGroupIsFlowSticky(t *testing.T) {
	s := sim.New(1)
	a, b := &collector{s: s}, &collector{s: s}
	sw := NewSwitch(s, "sw")
	pa := NewPort(s, "a", units.Rate10G, 0, nil, a)
	pb := NewPort(s, "b", units.Rate10G, 0, nil, b)
	sw.AddRoute(100, pa, pb)
	for i := uint32(0); i < 10; i++ {
		sw.Deliver(mkPkt(7, 100, i, 100))
	}
	s.Run()
	// Same five-tuple -> same port every time.
	if len(a.pkts) != 0 && len(b.pkts) != 0 {
		t.Fatalf("flow split across ports: a=%d b=%d", len(a.pkts), len(b.pkts))
	}
	if len(a.pkts)+len(b.pkts) != 10 {
		t.Fatal("lost packets")
	}
}

func TestDelayLineFIFO(t *testing.T) {
	s := sim.New(1)
	dst := &collector{s: s}
	dl := NewDelayLine(s, 100*time.Microsecond, dst)
	dl.Deliver(mkPkt(1, 2, 0, 100))
	s.RunUntil(sim.Time(50 * time.Microsecond))
	dl.Deliver(mkPkt(1, 2, 1, 100))
	s.Run()
	if len(dst.pkts) != 2 || dst.pkts[0].Seq != 0 || dst.pkts[1].Seq != 1 {
		t.Fatal("delay line reordered packets")
	}
	if dst.at[0] != sim.Time(100*time.Microsecond) || dst.at[1] != sim.Time(150*time.Microsecond) {
		t.Fatalf("times %v", dst.at)
	}
}

func TestDelaySwitchCausesReordering(t *testing.T) {
	s := sim.New(42)
	dst := &collector{s: s}
	ds := NewDelaySwitch(s, 250*time.Microsecond, dst)
	// Feed 100 packets 1us apart; with ~half delayed 250us, arrival order
	// must differ from send order.
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Microsecond, func() {
			ds.Deliver(mkPkt(1, 2, uint32(i), 100))
		})
	}
	s.Run()
	if len(dst.pkts) != 100 {
		t.Fatalf("delivered %d", len(dst.pkts))
	}
	inOrder := true
	for i := 1; i < len(dst.pkts); i++ {
		if dst.pkts[i].Seq < dst.pkts[i-1].Seq {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("delay switch should reorder")
	}
	if ds.Routed[0] == 0 || ds.Routed[1] == 0 {
		t.Fatalf("uniform hashing should use both lines: %v", ds.Routed)
	}
	// Reordering is bounded by tau: a packet sent at t arrives by t+tau+eps.
	for i, p := range dst.pkts {
		_ = i
		_ = p
	}
}

func TestDelaySwitchZeroTauPreservesOrder(t *testing.T) {
	s := sim.New(42)
	dst := &collector{s: s}
	ds := NewDelaySwitch(s, 0, dst)
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Microsecond, func() {
			ds.Deliver(mkPkt(1, 2, uint32(i), 100))
		})
	}
	s.Run()
	for i := 1; i < len(dst.pkts); i++ {
		if dst.pkts[i].Seq < dst.pkts[i-1].Seq {
			t.Fatal("zero-delay switch must not reorder")
		}
	}
}

func TestDropInjector(t *testing.T) {
	s := sim.New(7)
	dst := &collector{}
	di := NewDropInjector(s, 0.1, dst)
	const n = 20000
	for i := 0; i < n; i++ {
		di.Deliver(mkPkt(1, 2, uint32(i), 100))
	}
	rate := float64(di.Dropped) / float64(n)
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("drop rate = %.3f, want ~0.1", rate)
	}
	if di.Passed != int64(len(dst.pkts)) {
		t.Fatal("passed count mismatch")
	}
}

func TestDropInjectorZero(t *testing.T) {
	s := sim.New(7)
	dst := &collector{}
	di := NewDropInjector(s, 0, dst)
	for i := 0; i < 100; i++ {
		di.Deliver(mkPkt(1, 2, uint32(i), 100))
	}
	if di.Dropped != 0 || len(dst.pkts) != 100 {
		t.Fatal("zero-prob injector must pass everything")
	}
}

func TestClosEndToEnd(t *testing.T) {
	s := sim.New(1)
	c := NewClos(s, ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond,
	})
	rxA, rxB := &collector{s: s}, &collector{s: s}
	ipA, egressA := c.AttachHost(0, rxA)
	ipB, _ := c.AttachHost(1, rxB)
	if ipA == ipB {
		t.Fatal("duplicate host addresses")
	}
	// A -> B crosses ToR0, a spine, ToR1.
	egressA.Deliver(mkPkt(ipA, ipB, 1, units.MSS))
	s.Run()
	if len(rxB.pkts) != 1 {
		t.Fatalf("B received %d packets", len(rxB.pkts))
	}
	if len(rxA.pkts) != 0 {
		t.Fatal("A should receive nothing")
	}
	// Cross-fabric latency: 3 serializations + 3 props (ToR->spine->ToR->host).
	minLatency := sim.Time(3 * (units.TxTime(units.MTU, units.Rate40G) + 200*time.Nanosecond))
	if rxB.at[0] < minLatency {
		t.Fatalf("delivered at %v, faster than physics %v", rxB.at[0], minLatency)
	}
}

func TestClosSameToRStaysLocal(t *testing.T) {
	s := sim.New(1)
	c := NewClos(s, ClosConfig{NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G})
	rx1, rx2 := &collector{s: s}, &collector{s: s}
	ip1, egress1 := c.AttachHost(0, rx1)
	ip2, _ := c.AttachHost(0, rx2)
	_ = ip1
	egress1.Deliver(mkPkt(ip1, ip2, 1, units.MSS))
	s.Run()
	if len(rx2.pkts) != 1 {
		t.Fatal("same-ToR delivery failed")
	}
	for _, sp := range c.Spines {
		for _, ports := range c.spineToTor {
			for _, p := range ports {
				if p.TxPkts != 0 {
					t.Fatal("same-ToR traffic must not cross the spine")
				}
			}
		}
		_ = sp
	}
}

func TestClosUplinkLBPerPacketSpreads(t *testing.T) {
	s := sim.New(3)
	rr := 0
	c := NewClos(s, ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		UplinkLB: pickerFunc(func(p *packet.Packet, n int) int {
			rr++
			return rr % n
		}),
	})
	rx := &collector{s: s}
	ipSrcRx := &collector{s: s}
	ipSrc, egress := c.AttachHost(0, ipSrcRx)
	ipDst, _ := c.AttachHost(1, rx)
	for i := uint32(0); i < 10; i++ {
		egress.Deliver(mkPkt(ipSrc, ipDst, i, units.MSS))
	}
	s.Run()
	up := c.UplinkPorts(0)
	if up[0].TxPkts != 5 || up[1].TxPkts != 5 {
		t.Fatalf("uplink split %d/%d, want 5/5", up[0].TxPkts, up[1].TxPkts)
	}
	if len(rx.pkts) != 10 {
		t.Fatalf("received %d", len(rx.pkts))
	}
}

type pickerFunc func(p *packet.Packet, n int) int

func (f pickerFunc) Pick(p *packet.Packet, n int) int { return f(p, n) }

// Property: a FIFO drop-tail queue preserves order and byte accounting for
// any enqueue/dequeue interleaving.
func TestPropertyDropTailAccounting(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewDropTail(0)
		var model []uint32
		next := uint32(0)
		bytes := 0
		for _, enq := range ops {
			if enq {
				q.Enqueue(mkPkt(1, 2, next, 100))
				model = append(model, next)
				bytes += 140
				next++
			} else {
				p := q.Dequeue()
				if len(model) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p == nil || p.Seq != model[0] {
					return false
				}
				model = model[1:]
				bytes -= 140
			}
			if q.Len() != len(model) || q.Bytes() != bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyProbe(t *testing.T) {
	var o OccupancyProbe
	o.Observe(100)
	o.Observe(300)
	o.Observe(200)
	if o.MaxBytes != 300 {
		t.Fatalf("max = %d", o.MaxBytes)
	}
	if o.W.Mean() != 200 {
		t.Fatalf("mean = %v", o.W.Mean())
	}
}

// TestSwitchRouteCache: the direct-mapped cache in front of the routing
// table must never serve a stale or wrong group — across destinations that
// share a cache slot, and across an AddRoute that grows a cached group.
func TestSwitchRouteCache(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "sw")
	const a, b = 0x0a000001, 0x0a000001 + routeCacheSize // same slot
	var sinks [3]collector
	ports := [3]*Port{}
	for i := range ports {
		ports[i] = NewPort(s, "p", units.Rate10G, 0, nil, &sinks[i])
	}
	sw.AddRoute(a, ports[0])
	sw.AddRoute(b, ports[1])
	for i := 0; i < 3; i++ { // alternate: each lookup evicts the other
		sw.Deliver(mkPkt(9, a, 0, 100))
		sw.Deliver(mkPkt(9, b, 0, 100))
	}
	sw.Deliver(mkPkt(9, 0x0a0000ff, 0, 100)) // no route: counted, not cached
	s.Run()
	if len(sinks[0].pkts) != 3 || len(sinks[1].pkts) != 3 || sw.Unrouted != 1 {
		t.Fatalf("a=%d b=%d unrouted=%d, want 3 3 1", len(sinks[0].pkts), len(sinks[1].pkts), sw.Unrouted)
	}
	// Grow a's group after it has been cached; the picker must see both.
	sw.AddRoute(a, ports[2])
	sw.LB = pickerFunc(func(p *packet.Packet, n int) int { return n - 1 })
	sw.Deliver(mkPkt(9, a, 0, 100))
	s.Run()
	if len(sinks[2].pkts) != 1 {
		t.Fatalf("packet after AddRoute went to the stale group: new port saw %d", len(sinks[2].pkts))
	}
}

// recycler returns every delivered packet to the run's pool, as a host NIC
// does at the end of the path.
type recycler struct{ pool *packet.Pool }

func (r recycler) Deliver(p *packet.Packet) { r.pool.Put(p) }

// TestFabricHopZeroAlloc pins the closure-free event path: in steady state
// a packet crossing Port -> DelaySwitch -> Port (serialization, a held
// delay line, propagation) into a recycling sink allocates nothing — no
// closure per tx-complete, per propagation or per delay-line hold.
func TestFabricHopZeroAlloc(t *testing.T) {
	s := sim.New(1)
	pool := packet.PoolFromSim(s)
	const prop = 200 * time.Nanosecond
	out := NewPort(s, "out", units.Rate10G, prop, NewDropTail(0), recycler{pool})
	ds := NewDelaySwitch(s, 50*time.Microsecond, out)
	in := NewPort(s, "in", units.Rate10G, prop, NewDropTail(0), ds)
	burst := func() {
		for i := 0; i < 8; i++ { // a backlog, so kick chains tx-completes
			p := pool.Get()
			p.PayloadLen = units.MSS
			in.Send(p)
		}
		s.Run()
	}
	for i := 0; i < 16; i++ { // warm the pool, the event free list, the queues
		burst()
	}
	if ds.Routed[0] == 0 || ds.Routed[1] == 0 {
		t.Fatalf("delay switch did not use both lines: %v", ds.Routed)
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Errorf("8 packets through two ports and a delay switch allocate %v objects, want 0", allocs)
	}
	if out.TxPkts != in.TxPkts || out.TxPkts == 0 {
		t.Fatalf("in sent %d, out sent %d", in.TxPkts, out.TxPkts)
	}
}
