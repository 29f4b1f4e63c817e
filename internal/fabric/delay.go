package fabric

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// DelayLine is a FIFO delay element: every packet is held for Delay, and
// order within the line is preserved (a packet never overtakes an earlier
// one on the same line).
type DelayLine struct {
	sim   *sim.Sim
	Delay time.Duration
	// deliverFn is DeliverFunc(dst), the line's one event callback; the
	// held packet is the event argument.
	deliverFn func(any)

	lastOut sim.Time
}

// NewDelayLine creates a delay line feeding dst.
func NewDelayLine(s *sim.Sim, delay time.Duration, dst Sink) *DelayLine {
	if delay < 0 {
		panic("fabric: negative delay")
	}
	return &DelayLine{sim: s, Delay: delay, deliverFn: DeliverFunc(dst)}
}

// Deliver implements Sink.
func (d *DelayLine) Deliver(p *packet.Packet) {
	out := d.sim.Now().Add(d.Delay)
	if out < d.lastOut {
		out = d.lastOut // FIFO within the line
	}
	d.lastOut = out
	d.sim.ScheduleArgAt(out, d.deliverFn, p)
}

// DelaySwitch reproduces the NetFPGA-10G testbed of Figure 11: each inbound
// packet is hashed to one of two output queues uniformly at random; the
// second queue adds a configurable delay, precisely controlling the amount
// of reordering seen by the receiver. Both queues merge into a single
// egress port toward the receiver.
type DelaySwitch struct {
	sim   *sim.Sim
	lines [2]*DelayLine

	// Counts per line, for tests.
	Routed [2]int64
}

// NewDelaySwitch creates the delay switch: line 0 has zero added delay,
// line 1 adds tau. Both feed egress (typically a Port toward the receiver).
func NewDelaySwitch(s *sim.Sim, tau time.Duration, egress Sink) *DelaySwitch {
	ds := &DelaySwitch{sim: s}
	ds.lines[0] = NewDelayLine(s, 0, egress)
	ds.lines[1] = NewDelayLine(s, tau, egress)
	return ds
}

// Deliver implements Sink.
func (ds *DelaySwitch) Deliver(p *packet.Packet) {
	i := ds.sim.Rand().Intn(2)
	ds.Routed[i]++
	ds.lines[i].Deliver(p)
}

// DropInjector drops each packet independently with probability Prob
// before passing it on — the §5.2.1 latency experiment drops 0.1% of
// packets "before they enter Juggler".
type DropInjector struct {
	sim  *sim.Sim
	Prob float64
	dst  Sink

	Dropped int64
	Passed  int64

	// tel is the run's telemetry sink; nil disables recording.
	tel *telemetry.Sink
}

// NewDropInjector wraps dst with uniform random drops.
func NewDropInjector(s *sim.Sim, prob float64, dst Sink) *DropInjector {
	if prob < 0 || prob > 1 {
		panic("fabric: drop probability out of range")
	}
	di := &DropInjector{sim: s, Prob: prob, dst: dst}
	if k := telemetry.FromSim(s); k != nil {
		di.tel = k
		k.Reg().CounterOf("fabric_injected_drops_total",
			"Packets dropped by the loss injector.", "", "", &di.Dropped)
	}
	return di
}

// Deliver implements Sink.
func (di *DropInjector) Deliver(p *packet.Packet) {
	if di.Prob > 0 && di.sim.Rand().Float64() < di.Prob {
		di.Dropped++
		di.tel.Record(&telemetry.Record{Layer: telemetry.LayerFabric, Op: telemetry.OpDrop,
			Flow: p.Flow, Seq: p.Seq, N: int64(p.PayloadLen), Note: "injected"})
		return
	}
	di.Passed++
	di.dst.Deliver(p)
}
