package fabric

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// Sink is anything that can accept a packet from the fabric: a switch, a
// delay element, a host NIC, a drop injector.
type Sink interface {
	Deliver(p *packet.Packet)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(p *packet.Packet)

// Deliver implements Sink.
func (f SinkFunc) Deliver(p *packet.Packet) { f(p) }

// DeliverFunc returns dst.Deliver in the shape of a sim event callback: the
// event's argument is the packet. An element that holds packets for a while
// (a port's wire, a delay line, a chaos impairment) binds it once at
// construction and schedules with sim.ScheduleArg, so holding a packet
// mints no closure.
func DeliverFunc(dst Sink) func(any) {
	return func(p any) { dst.Deliver(p.(*packet.Packet)) }
}

// Port is a serializing egress: a queue drained at link rate, feeding a
// remote Sink after a propagation delay. It is the single source of
// queueing delay in the simulated network.
type Port struct {
	Name string

	sim   *sim.Sim
	rate  units.BitRate
	prop  time.Duration
	queue Queue
	dst   Sink

	busy bool
	down bool

	// txDoneFn (serialization complete) and deliverFn (propagation
	// complete) are the port's two event callbacks, bound once at
	// construction; the packet is the event argument.
	txDoneFn, deliverFn func(any)

	// TxPkts / TxBytes count transmitted traffic.
	TxPkts  int64
	TxBytes int64

	// DroppedDown counts packets lost to the link being down (arrivals
	// while down plus queued frames discarded when the link goes down).
	DroppedDown int64
	// sendDrops counts arrivals Send discarded (link down or queue full),
	// the fabric_drops_total view.
	sendDrops int64

	// Probe, when non-nil, samples queue occupancy at each enqueue.
	Probe *OccupancyProbe

	// tel is the run's telemetry sink; nil disables recording.
	tel   *telemetry.Sink
	track int32
}

// NewPort creates a port transmitting at rate with propagation delay prop
// through queue q into dst.
func NewPort(s *sim.Sim, name string, rate units.BitRate, prop time.Duration, q Queue, dst Sink) *Port {
	if q == nil {
		q = NewDropTail(0)
	}
	if dst == nil {
		panic("fabric: port with nil destination")
	}
	pt := &Port{Name: name, sim: s, rate: rate, prop: prop, queue: q, dst: dst}
	pt.txDoneFn = pt.txDone
	pt.deliverFn = DeliverFunc(dst)
	if k := telemetry.FromSim(s); k != nil {
		pt.tel = k
		pt.track = k.Track(name)
		k.Reg().CounterOf("fabric_tx_packets_total",
			"Packets transmitted by fabric ports.", "port", name, &pt.TxPkts)
		k.Reg().CounterOf("fabric_drops_total",
			"Packets dropped at fabric ports (queue overflow or link down).", "port", name, &pt.sendDrops)
	}
	return pt
}

// Rate returns the port's link rate.
func (pt *Port) Rate() units.BitRate { return pt.rate }

// Queue returns the port's queue (for stats inspection).
func (pt *Port) Queue() Queue { return pt.queue }

// SetDown changes the link's administrative state. Taking the link down
// discards the queue contents (frames waiting on a dead link are lost) and
// drops subsequent arrivals; a frame already mid-serialization still
// completes, as it was effectively on the wire when the link cut. Bringing
// the link back up resumes service with the next Send.
func (pt *Port) SetDown(down bool) {
	if pt.down == down {
		return
	}
	pt.down = down
	if down {
		for pt.queue.Dequeue() != nil {
			pt.DroppedDown++
		}
	}
}

// Down reports whether the link is down.
func (pt *Port) Down() bool { return pt.down }

// Send enqueues p for transmission; if the queue rejects it the packet is
// silently dropped (the queue records the drop).
func (pt *Port) Send(p *packet.Packet) {
	if pt.down {
		pt.DroppedDown++
		pt.sendDrops++
		pt.tel.Record(&telemetry.Record{Layer: telemetry.LayerFabric, Op: telemetry.OpDrop,
			Track: pt.track, Flow: p.Flow, Seq: p.Seq, N: int64(p.WireLen()), Note: "link-down"})
		return
	}
	if pt.Probe != nil {
		pt.Probe.Observe(pt.queue.Bytes())
	}
	if !pt.queue.Enqueue(p) {
		pt.sendDrops++
		pt.tel.Record(&telemetry.Record{Layer: telemetry.LayerFabric, Op: telemetry.OpDrop,
			Track: pt.track, Flow: p.Flow, Seq: p.Seq, N: int64(p.WireLen()), Note: "queue-full"})
		return
	}
	if !pt.busy {
		pt.kick()
	}
}

// Deliver implements Sink so a Port can terminate another element (e.g. a
// delay switch's merge point) directly.
func (pt *Port) Deliver(p *packet.Packet) { pt.Send(p) }

// kick starts transmitting the head-of-line packet.
func (pt *Port) kick() {
	p := pt.queue.Dequeue()
	if p == nil {
		pt.busy = false
		return
	}
	pt.busy = true
	pt.sim.ScheduleArg(units.TxTime(p.WireLen(), pt.rate), pt.txDoneFn, p)
}

// txDone runs when the head-of-line packet has finished serializing: it
// goes onto the wire (or straight into the destination when the link has
// no propagation delay) and the next packet starts.
func (pt *Port) txDone(arg any) {
	p := arg.(*packet.Packet)
	pt.TxPkts++
	pt.TxBytes += int64(p.WireLen())
	// First-egress hop stamp: only the first port on the path records
	// it, so the fabric sojourn spans every later switch hop too.
	if !p.SkipStamps && p.Stamps[packet.HopFabricEgress] == 0 {
		packet.Stamp(&p.Stamps, packet.HopFabricEgress, pt.sim.Now())
	}
	if pt.prop > 0 {
		pt.sim.ScheduleArg(pt.prop, pt.deliverFn, p)
	} else {
		pt.dst.Deliver(p)
	}
	pt.kick()
}

// Idle reports whether the port is neither transmitting nor backlogged.
func (pt *Port) Idle() bool { return !pt.busy && pt.queue.Len() == 0 }
