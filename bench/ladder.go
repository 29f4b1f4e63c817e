package main

import (
	"runtime"
	"time"

	"juggler/internal/core"
	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/reasm"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// The replay ladder and the isolated drivers: every host time the traced
// pass reports that is not a whole repetition.

// rungReps is k for each ladder rung and driver.
const rungReps = 5

// cost is a rung's or driver's host time and allocations per unit of work.
type cost struct {
	ns      float64
	mallocs float64
}

// bestOf runs pass k times and reduces the passes the way the untraced
// pass reduces repetitions: pass times its work as a sequence of st.run
// steps, the same sequence every time, and the result is the floor sum
// over the passes divided by units. Allocations are the median pass's.
func bestOf(p *probe, units int, pass func(st *steps)) cost {
	var m0, m1 runtime.MemStats
	passes := make([]rep, rungReps)
	mallocs := make([]float64, rungReps)
	for i := range passes {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		st := steps{p: p}
		pass(&st)
		runtime.ReadMemStats(&m1)
		passes[i].window = st.scaled()
		mallocs[i] = float64(m1.Mallocs - m0.Mallocs)
	}
	return cost{floorSum(passes, windowOf) / float64(units), median(mallocs) / float64(units)}
}

func windowOf(r *rep) []float64 { return r.window }

// chunked runs body over [0,n) as 64 timed steps.
func chunked(st *steps, n int, body func(lo, hi int)) {
	const chunks = 64
	for c := 0; c < chunks; c++ {
		lo, hi := n*c/chunks, n*(c+1)/chunks
		st.run(func() { body(lo, hi) })
	}
}

// rung is one step of the replay ladder.
type rung struct {
	name    string
	offload testbed.OffloadKind
	bare    bool // arrival events only, no NIC
	tcp     bool // segments go on to tcp.Receiver.OnSegment, ACKs discarded
	sample  int  // telemetry: 0 none, 1 every packet, n one in n
}

// coreRung is the rung whose deliveries feed the isolated TCP driver.
var coreRung = rung{name: "nic+core", offload: testbed.OffloadJuggler}

var ladder = []rung{
	{name: "sim", bare: true},
	{name: "nic+null", offload: testbed.OffloadNone},
	{name: "nic+vanilla", offload: testbed.OffloadVanilla},
	coreRung,
	{name: "nic+core+tcp", offload: testbed.OffloadJuggler, tcp: true},
	{name: "nic+core+tcp+telemetry", offload: testbed.OffloadJuggler, tcp: true, sample: 1},
	{name: "nic+core+tcp+telemetry/32", offload: testbed.OffloadJuggler, tcp: true, sample: 32},
}

// replayCosts is the CPU model of a replayed receiver: the per-packet
// driver and GRO charge only. With nothing charged per segment or per
// out-of-order packet the modelled RX core paces its polls the same way
// whatever the offload, so the rungs see the same batches and differ by
// the offload's host time alone.
func replayCosts() cpumodel.Costs {
	c := cpumodel.DefaultCosts()
	return cpumodel.Costs{DriverPerPacket: c.DriverPerPacket, GROPerPacket: c.GROPerPacket}
}

// replay runs the capture through rung rg, at its captured times, in
// timed slices of the capture's own length. Segments leaving the offload
// layer are copied to *record when it is non-nil. It returns the
// telemetry sink, if the rung had one, so the export can be timed.
func (c *capture) replay(rg rung, st *steps, record *[]packet.Segment) *telemetry.Sink {
	s := sim.New(1)
	var sink *telemetry.Sink
	if rg.sample > 0 {
		packet.AttachStampSampler(s, rg.sample)
		sink = telemetry.New(s, telemetry.Options{})
	}
	sampler := packet.StampSamplerFromSim(s)
	pool, segs := packet.PoolFromSim(s), packet.SegPoolFromSim(s)

	sinks := make([]fabric.Sink, c.receivers)
	for i := range sinks {
		if rg.bare {
			sinks[i] = fabric.SinkFunc(pool.Put)
			continue
		}
		rcvs := map[packet.FiveTuple]*tcp.Receiver{}
		deliver := func(seg *packet.Segment) {
			if record != nil {
				*record = append(*record, *seg)
			}
			if rg.tcp {
				rcv := rcvs[seg.Flow]
				if rcv == nil {
					rcv = tcp.NewReceiver(s, seg.Flow, pool.Put)
					rcvs[seg.Flow] = rcv
				}
				rcv.OnSegment(seg)
			}
			segs.Put(seg)
		}
		sinks[i] = nic.NewRX(s, c.rx, cpumodel.New(s, replayCosts()), func(int) gro.Offload {
			switch rg.offload {
			case testbed.OffloadNone:
				g := gro.NewNull(deliver)
				g.UsePool(segs)
				return g
			case testbed.OffloadVanilla:
				g := gro.NewVanilla(deliver)
				g.UsePool(segs)
				return g
			}
			return core.New(s, c.juggler, deliver)
		})
	}

	i := 0
	var arrive func()
	arrive = func() {
		for now := s.Now(); i < len(c.at) && c.at[i] == now; i++ {
			p := pool.Get()
			c.hdr[i].fill(p)
			sampler.Apply(p)
			sinks[c.hdr[i].rcv].Deliver(p)
		}
		if i < len(c.at) {
			s.ScheduleAt(c.at[i], arrive)
		}
	}
	s.ScheduleAt(c.at[0], arrive)
	for s.Pending() > 0 {
		st.run(func() { s.RunFor(c.slice) })
	}
	return sink
}

// nullCost drives gro.Null directly with the capture's headers: the floor
// any offload layer pays, which the ladder's nic rung cannot separate
// from the NIC. It includes rebuilding the packet from its header.
func (c *capture) nullCost() cost {
	return bestOf(heapProbe, len(c.hdr), func(st *steps) {
		segs := &packet.SegPool{}
		g := gro.NewNull(segs.Put)
		g.UsePool(segs)
		var p packet.Packet
		chunked(st, len(c.hdr), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.hdr[i].fill(&p)
				g.Receive(&p)
			}
		})
	})
}

// oooFrac is the share of captured data packets that did not start where
// the previous packet of their flow ended.
func (c *capture) oooFrac() float64 {
	next := make([]uint32, len(c.flow))
	seen := make([]bool, len(c.flow))
	var data, ooo int
	for i := range c.hdr {
		h := &c.hdr[i]
		if h.payload == 0 {
			continue
		}
		data++
		if seen[h.flowID] && h.seq != next[h.flowID] {
			ooo++
		}
		next[h.flowID], seen[h.flowID] = h.seq+uint32(h.payload), true
	}
	return float64(ooo) / float64(data)
}

// reasmCost replays each flow's data packets, in captured order, into a
// reassembly backend of the workload's kind behind the smallest possible
// consumer: pop whatever has become contiguous. It reports host time and
// allocations per insert.
func (c *capture) reasmCost() cost {
	type flowState struct {
		q      reasm.Backend
		next   uint32
		primed bool
	}
	inserts := 0
	total := bestOf(heapProbe, 1, func(st *steps) {
		segs := &packet.SegPool{}
		flows := make([]flowState, len(c.flow))
		for i := range flows {
			flows[i].q = reasm.New(c.juggler.Backend, segs)
		}
		inserts = 0
		var p packet.Packet
		chunked(st, len(c.hdr), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				h := &c.hdr[i]
				f := &flows[h.flowID]
				if h.payload == 0 || (f.primed && packet.SeqLess(h.seq, f.next)) {
					continue // pure ACK, or a retransmission core would pass through
				}
				if !f.primed {
					f.next, f.primed = h.seq, true
				}
				h.fill(&p)
				f.q.Insert(&p)
				inserts++
				for head := f.q.Head(); head != nil && packet.SeqLEQ(head.Seq, f.next); head = f.q.Head() {
					seg := f.q.PopHead()
					f.next = packet.SeqMax(f.next, seg.EndSeq())
					segs.Put(seg)
				}
			}
		})
	})
	return cost{total.ns / float64(inserts), total.mallocs / float64(inserts)}
}

// tcpCost is the isolated TCP receive driver: the segments the core rung
// delivered, in order, into tcp.Receiver.OnSegment with the ACKs recycled
// unsent. The ladder's tcp rung carries the same cost, but spread over
// every packet it is a few nanoseconds, too little to read off a
// difference of rungs.
func (c *capture) tcpCost(delivered []packet.Segment) cost {
	ids := make([]uint16, len(delivered))
	for i := range delivered {
		ids[i] = c.flow[delivered[i].Flow]
	}
	return bestOf(heapProbe, len(delivered), func(st *steps) {
		s := sim.New(1)
		pool := packet.PoolFromSim(s)
		rcvs := make([]*tcp.Receiver, len(c.flow))
		for flow, id := range c.flow {
			rcvs[id] = tcp.NewReceiver(s, flow, pool.Put)
		}
		chunked(st, len(delivered), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seg := delivered[i]
				rcvs[ids[i]].OnSegment(&seg)
			}
		})
	})
}

// simCost is the isolated event-queue driver: schedule and step no-op
// events with the queue held at the given depth.
func simCost(pending, events int) cost {
	return bestOf(heapProbe, events, func(st *steps) {
		s := sim.New(1)
		noop := func() {}
		// A fixed multiplicative sequence spreads deadlines over 100 us so
		// inserts land throughout the heap, as the stack's timers do.
		x := uint32(1)
		delay := func() time.Duration {
			x = x*1664525 + 1013904223
			return time.Duration(x>>8) % (100 * time.Microsecond)
		}
		for i := 0; i < pending; i++ {
			s.Schedule(delay(), noop)
		}
		chunked(st, events, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.Schedule(delay(), noop)
				s.Step()
			}
		})
	})
}

// fabricCost is the isolated port driver: packets through a chain of hops
// ports at the workload's link rate into a recycling sink. It reports
// host time per packet and hop, the ports' own events included.
func fabricCost(hops, pkts int, rate units.BitRate) cost {
	return bestOf(heapProbe, pkts*hops, func(st *steps) {
		s := sim.New(1)
		pool := packet.PoolFromSim(s)
		var dst fabric.Sink = fabric.SinkFunc(pool.Put)
		for i := 0; i < hops; i++ {
			dst = fabric.NewPort(s, "hop", rate, 200*time.Nanosecond, fabric.NewDropTail(0), dst)
		}
		for i := 0; i < pkts; i++ {
			p := pool.Get()
			p.PayloadLen = units.MSS
			dst.Deliver(p)
		}
		slice := units.TxTime(units.MTU, rate) * time.Duration(pkts) / 64
		for s.Pending() > 0 {
			st.run(func() { s.RunFor(slice) })
		}
	})
}
