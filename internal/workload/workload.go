// Package workload generates the traffic patterns of the paper's
// evaluation: open-loop Poisson RPC streams over persistent TCP
// connections (§5.3.2), bulk flows, and raw background load that fills
// fabric links to a target utilization (§5.1.1).
package workload

import (
	"math/rand"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/units"
)

// RPCStream tracks request completions over one persistent connection:
// each Send appends a message to the TCP stream; completion is when the
// receiver has delivered the message's last byte in order, and the
// recorded latency spans from Send (generation) to delivery — open-loop
// RPC completion time, queueing included.
type RPCStream struct {
	sim *sim.Sim
	snd *tcp.Sender

	pending []pendingRPC
	// Latency collects completion times in seconds.
	Latency *stats.Sampler
	// Completed counts finished RPCs.
	Completed int64
	// OnComplete, when non-nil, fires once per finished RPC — closed-loop
	// generators hook in here to issue the next request.
	OnComplete func()
	// OnLatency, when non-nil, observes each completed RPC's latency
	// (the fleet FCT sketch hooks in here; fires before OnComplete).
	OnLatency func(d time.Duration)
}

type pendingRPC struct {
	endOff  int64
	startAt sim.Time
}

// NewRPCStream wires completion tracking onto an established sender/
// receiver pair. The receiver's OnDeliver hook is claimed by this stream.
func NewRPCStream(s *sim.Sim, snd *tcp.Sender, rcv *tcp.Receiver, lat *stats.Sampler) *RPCStream {
	if lat == nil {
		lat = stats.NewSampler(1024)
	}
	r := &RPCStream{sim: s, snd: snd, Latency: lat}
	rcv.OnDeliver = r.onDeliver
	return r
}

// Send enqueues one size-byte RPC now.
func (r *RPCStream) Send(size int) {
	if size <= 0 {
		panic("workload: non-positive RPC size")
	}
	r.snd.Write(size, true)
	r.pending = append(r.pending, pendingRPC{
		endOff:  r.snd.StreamEnd(),
		startAt: r.sim.Now(),
	})
}

// Outstanding returns the number of RPCs not yet fully delivered.
func (r *RPCStream) Outstanding() int { return len(r.pending) }

func (r *RPCStream) onDeliver(cum int64) {
	n := 0
	for n < len(r.pending) && r.pending[n].endOff <= cum {
		d := r.sim.Now().Sub(r.pending[n].startAt)
		r.Latency.AddDuration(d)
		if r.OnLatency != nil {
			r.OnLatency(d)
		}
		r.Completed++
		n++
	}
	if n > 0 {
		r.pending = append(r.pending[:0], r.pending[n:]...)
		if r.OnComplete != nil {
			for i := 0; i < n; i++ {
				r.OnComplete()
			}
		}
	}
}

// PoissonRPCGen drives a set of RPC streams with open-loop Poisson
// arrivals of fixed-size messages, multiplexing each arrival onto a
// uniformly random stream — the paper's §5.3.2 generator ("randomly
// multiplexes RPCs across 8 long-lived TCP sessions").
type PoissonRPCGen struct {
	sim     *sim.Sim
	rng     *rand.Rand
	streams []*RPCStream
	size    int
	mean    time.Duration
	timer   *sim.Timer
	on      bool

	// Dist, when non-nil, draws each RPC's size from a distribution
	// instead of the fixed size (the rate was computed by the caller).
	Dist SizeDist

	// MaxOutstanding, when > 0, sheds an arrival instead of queueing it
	// onto a stream that already has that many RPCs outstanding (windowed
	// open loop: clients give up rather than queue forever).
	MaxOutstanding int

	// Generated counts arrivals; Shed counts arrivals dropped because
	// every candidate stream was saturated.
	Generated int64
	Shed      int64
}

// NewPoissonRPCGen creates a generator producing size-byte RPCs at the
// given aggregate average rate (RPCs per second) across the streams.
func NewPoissonRPCGen(s *sim.Sim, streams []*RPCStream, size int, perSecond float64) *PoissonRPCGen {
	if perSecond <= 0 || len(streams) == 0 {
		panic("workload: invalid Poisson generator")
	}
	g := &PoissonRPCGen{
		sim: s, rng: s.Rand(), streams: streams, size: size,
		mean: time.Duration(float64(time.Second) / perSecond),
	}
	g.timer = sim.NewTimer(s, g.fire)
	return g
}

// Streams returns the generator's streams.
func (g *PoissonRPCGen) Streams() []*RPCStream { return g.streams }

// Start begins generation.
func (g *PoissonRPCGen) Start() {
	g.on = true
	g.timer.Reset(g.nextGap())
}

// Stop ends generation.
func (g *PoissonRPCGen) Stop() {
	g.on = false
	g.timer.Stop()
}

func (g *PoissonRPCGen) nextGap() time.Duration {
	d := time.Duration(g.rng.ExpFloat64() * float64(g.mean))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

func (g *PoissonRPCGen) fire() {
	if !g.on {
		return
	}
	g.Generated++
	size := g.size
	if g.Dist != nil {
		size = g.Dist.Sample(g.rng)
		if size < 1 {
			size = 1
		}
	}
	if g.MaxOutstanding <= 0 {
		g.streams[g.rng.Intn(len(g.streams))].Send(size)
	} else {
		// Try a few random streams before shedding the arrival.
		sent := false
		for try := 0; try < 4; try++ {
			st := g.streams[g.rng.Intn(len(g.streams))]
			if st.Outstanding() < g.MaxOutstanding {
				st.Send(size)
				sent = true
				break
			}
		}
		if !sent {
			g.Shed++
		}
	}
	g.timer.Reset(g.nextGap())
}

// Background injects raw Poisson MTU packets into a serializing egress
// port toward a sink address, producing the queueing-delay variation that
// causes reordering under per-packet load balancing (§5.1.1's "average
// load on the sending ToR uplinks is 50%"). The packets are UDP so they
// never interact with TCP endpoints.
type Background struct {
	sim  *sim.Sim
	rng  *rand.Rand
	out  interface{ SendRaw(p *packet.Packet) }
	flow packet.FiveTuple
	mean time.Duration
	t    *sim.Timer
	on   bool
	seq  uint32

	// Sent counts emitted packets.
	Sent int64
}

// NewBackground creates a source emitting MTU packets at average rate r
// through out on the given flow.
func NewBackground(s *sim.Sim, out interface{ SendRaw(p *packet.Packet) }, flow packet.FiveTuple, r units.BitRate) *Background {
	if r <= 0 {
		panic("workload: non-positive background rate")
	}
	mean := units.TxTimeNoOverhead(int64(units.MTU), r)
	b := &Background{sim: s, rng: s.Rand(), out: out, flow: flow, mean: mean}
	b.t = sim.NewTimer(s, b.fire)
	return b
}

// Start begins emission.
func (b *Background) Start() {
	b.on = true
	b.t.Reset(b.gap())
}

// Stop ends emission.
func (b *Background) Stop() {
	b.on = false
	b.t.Stop()
}

func (b *Background) gap() time.Duration {
	d := time.Duration(b.rng.ExpFloat64() * float64(b.mean))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

func (b *Background) fire() {
	if !b.on {
		return
	}
	b.Sent++
	b.seq += uint32(units.MSS)
	b.out.SendRaw(&packet.Packet{
		Flow: b.flow, Seq: b.seq, PayloadLen: units.MSS,
		Priority: packet.PrioLow,
	})
	b.t.Reset(b.gap())
}
