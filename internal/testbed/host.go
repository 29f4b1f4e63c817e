// Package testbed assembles complete end hosts (NIC, receive offload, CPU
// model, TCP endpoints) and the paper's experimental topologies: the
// NetFPGA delay-switch pair (Figure 11) and the two-stage Clos (Figure
// 19), which with one spine and priority queues is also Figure 17's
// strict-priority dumbbell. The evaluation harness, the examples, and the
// integration tests all build on this package.
package testbed

import (
	"fmt"
	"time"

	"juggler/internal/adapt"
	"juggler/internal/core"
	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/netfilter"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/units"
)

// OffloadKind selects the receive-offload implementation at a host.
type OffloadKind uint8

// The receive-offload configurations compared by the evaluation.
const (
	// OffloadVanilla is today's Linux GRO (the "vanilla kernel").
	OffloadVanilla OffloadKind = iota
	// OffloadJuggler is the paper's design.
	OffloadJuggler
	// OffloadLinkedList is the §3.1 linked-list batching strawman.
	OffloadLinkedList
	// OffloadNone disables receive offload entirely.
	OffloadNone
)

// String names the offload kind.
func (k OffloadKind) String() string {
	switch k {
	case OffloadVanilla:
		return "vanilla"
	case OffloadJuggler:
		return "juggler"
	case OffloadLinkedList:
		return "linkedlist"
	case OffloadNone:
		return "none"
	}
	return "?"
}

// ParseOffloadKind resolves a kind from its String name (the CLIs' -stack).
func ParseOffloadKind(name string) (OffloadKind, error) {
	for k := OffloadVanilla; k <= OffloadNone; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown stack %q (want juggler, vanilla, linkedlist or none)", name)
}

// newOffload builds one receive-offload instance of kind on s. Segments
// it mints come from pool and leave through deliver. A non-nil tel
// instruments vanilla GRO; a Juggler instruments itself from s.
func newOffload(s *sim.Sim, kind OffloadKind, jcfg core.Config, pool *packet.SegPool,
	deliver gro.Deliver, tel *telemetry.Sink) gro.Offload {
	switch kind {
	case OffloadVanilla:
		g := gro.NewVanilla(deliver)
		g.UsePool(pool)
		g.Instrument(tel)
		return g
	case OffloadJuggler:
		return core.New(s, jcfg, deliver)
	case OffloadLinkedList:
		g := gro.NewLinkedList(deliver)
		g.UsePool(pool)
		return g
	case OffloadNone:
		g := gro.NewNull(deliver)
		g.UsePool(pool)
		return g
	}
	panic(fmt.Sprintf("testbed: unknown offload kind %d", kind))
}

// appBacklogLimit bounds the app core's queued work; segments beyond it
// are dropped (socket backlog overflow).
const appBacklogLimit = 3 * time.Millisecond

// HostConfig configures one end host.
type HostConfig struct {
	// LinkRate is the NIC speed (10G / 40G in the paper).
	LinkRate units.BitRate
	// RX tunes receive-side scaling and interrupt coalescing.
	RX nic.RXConfig
	// Offload selects the receive-offload implementation.
	Offload OffloadKind
	// Juggler tunes the Juggler instances (used when Offload is
	// OffloadJuggler).
	Juggler core.Config
	// Adapt enables the online reordering detector and self-tuning
	// controller (internal/adapt) over the host's Juggler instances:
	// every received packet feeds the sketch, and the controller drives
	// the timeouts from its live estimates. Ignored for non-Juggler
	// offloads.
	Adapt bool
	// Costs is the CPU cost table (DefaultCosts when zero).
	Costs cpumodel.Costs
	// Conntrack, when non-nil, interposes a netfilter connection tracker
	// on the post-offload segment stream (S3.1); in strict mode INVALID
	// segments are dropped before TCP.
	Conntrack *netfilter.Config
	// Sender is the default TCP sender tuning for connections from this
	// host.
	Sender tcp.SenderConfig
}

// DefaultHostConfig returns a 40G host running the given offload.
func DefaultHostConfig(kind OffloadKind) HostConfig {
	return HostConfig{
		LinkRate: units.Rate40G,
		RX:       nic.DefaultRXConfig(),
		Offload:  kind,
		Juggler:  core.DefaultConfig(),
		Costs:    cpumodel.DefaultCosts(),
	}
}

// Host is a complete end host.
type Host struct {
	Name string
	IP   uint32

	sim *sim.Sim
	cfg HostConfig

	CPU *cpumodel.Model
	RX  *nic.RX
	TX  *nic.TX

	egress *fabric.Port

	// Jugglers holds the per-RX-queue Juggler instances when the host
	// runs OffloadJuggler (for flow-table statistics).
	Jugglers []*core.Juggler

	// Adapt is the host's self-tuning controller (nil unless
	// HostConfig.Adapt enabled it on a Juggler host).
	Adapt *adapt.Controller

	receivers map[packet.FiveTuple]*tcp.Receiver
	senders   map[packet.FiveTuple]*tcp.Sender // keyed by the ACK tuple

	// CT is the optional netfilter connection tracker.
	CT *netfilter.Conntrack

	// SegmentTap, when non-nil, observes every segment leaving the offload
	// layer, before conntrack and app-core accounting. The chaos invariant
	// checker installs here — it is the "delivered to TCP" observation
	// point.
	SegmentTap func(seg *packet.Segment)

	// DeliverTap, when non-nil, observes every segment at the final
	// delivery point (after the HopDeliver stamp, before the segment is
	// recycled). The fleet telemetry probe installs here; the segment
	// must not be retained.
	DeliverTap func(seg *packet.Segment)

	// DroppedSegs counts segments lost to app-core backlog overflow.
	DroppedSegs int64
	// UnmatchedSegs counts segments with no registered endpoint.
	UnmatchedSegs int64
	// offloadSegs counts segments leaving the offload layer.
	offloadSegs int64

	nextPort uint16

	// segPool recycles segments once the host is done with them: the
	// offload layer mints every delivered segment; the host, as the last
	// consumer (drop paths included), is the single return point.
	segPool *packet.SegPool

	// dispatchFn is the app-core completion callback, bound once; the
	// serviced segment is the job's argument.
	dispatchFn func(any)

	// tel is the run's telemetry sink; nil disables recording.
	tel *telemetry.Sink
}

// NewHost builds the receive side of a host. The transmit side is attached
// afterwards with ConnectEgress once the fabric side exists.
func NewHost(s *sim.Sim, name string, cfg HostConfig) *Host {
	if cfg.LinkRate <= 0 {
		panic("testbed: host needs a link rate")
	}
	if cfg.Costs == (cpumodel.Costs{}) {
		cfg.Costs = cpumodel.DefaultCosts()
	}
	if cfg.RX.Queues <= 0 {
		cfg.RX = nic.DefaultRXConfig()
	}
	h := &Host{
		Name:      name,
		sim:       s,
		cfg:       cfg,
		CPU:       cpumodel.New(s, cfg.Costs),
		receivers: map[packet.FiveTuple]*tcp.Receiver{},
		senders:   map[packet.FiveTuple]*tcp.Sender{},
		nextPort:  10000,
		segPool:   packet.SegPoolFromSim(s),
	}
	h.dispatchFn = func(seg any) { h.dispatch(seg.(*packet.Segment)) }
	h.CPU.App.QueueLimit = appBacklogLimit
	if cfg.Conntrack != nil {
		h.CT = netfilter.New(*cfg.Conntrack)
	}
	if k := telemetry.FromSim(s); k != nil {
		h.tel = k
		r := k.Reg()
		r.CounterOf("host_segments_total",
			"Segments leaving the offload layer at each host.", "host", name, &h.offloadSegs)
		r.CounterOf("host_backlog_drops_total",
			"Segments lost to app-core backlog overflow.", "host", name, &h.DroppedSegs)
		var ctDrops *int64 // nil without conntrack: the child still prints 0
		if h.CT != nil {
			ctDrops = &h.CT.Stats.Dropped
		}
		r.CounterOf("host_conntrack_drops_total",
			"Segments dropped by strict conntrack.", "host", name, ctDrops)
	}
	if h.cfg.RX.Name == "" {
		h.cfg.RX.Name = name
	}
	if cfg.Adapt && cfg.Offload == OffloadJuggler {
		h.Adapt = adapt.NewController(s)
	}
	h.RX = nic.NewRX(s, h.cfg.RX, h.CPU, func(int) gro.Offload {
		off := newOffload(s, h.cfg.Offload, h.cfg.Juggler, h.segPool, h.onSegment, h.tel)
		if j, ok := off.(*core.Juggler); ok {
			h.Jugglers = append(h.Jugglers, j)
			if h.Adapt != nil {
				// The adapt tap measures every packet before the core sees
				// it and registers the instance as an actuation target.
				return h.Adapt.Wrap(j)
			}
		}
		return off
	})
	return h
}

// ConnectEgress attaches the host's transmit path: an egress port at link
// rate into the fabric sink (a ToR switch, a delay switch, or a peer).
func (h *Host) ConnectEgress(dst fabric.Sink, prop time.Duration) {
	if h.egress != nil {
		panic("testbed: egress already connected")
	}
	h.egress = fabric.NewPort(h.sim, h.Name+"-egress", h.cfg.LinkRate, prop, fabric.NewDropTail(0), dst)
	h.TX = nic.NewTX(h.sim, h.egress)
}

// Egress exposes the host's egress port (for TX statistics).
func (h *Host) Egress() *fabric.Port { return h.egress }

// Sink returns the fabric-facing receive sink of the host.
func (h *Host) Sink() fabric.Sink { return h.RX }

// onSegment is the offload upcall: charge the app core and dispatch to the
// owning TCP endpoint once the core's queue serves the segment.
func (h *Host) onSegment(seg *packet.Segment) {
	if h.SegmentTap != nil {
		h.SegmentTap(seg)
	}
	h.offloadSegs++
	if h.CT != nil {
		if v := h.CT.Inspect(seg); h.CT.ShouldDrop(v) {
			h.tel.Record(&telemetry.Record{Layer: telemetry.LayerHost, Op: telemetry.OpDrop,
				Flow: seg.Flow, Seq: seg.Seq, N: int64(seg.Bytes), Note: "conntrack"})
			h.segPool.Put(seg)
			return
		}
	}
	var cost time.Duration
	if seg.Bytes == 0 {
		// Pure ACK: cheaper receive path (no copy, no wakeup).
		cost = h.cfg.Costs.AppPerSegment / 4
	} else {
		cost = h.CPU.AppSegmentCost(seg.Bytes, seg.Pkts, seg.Kind == packet.MergeLinkedList)
	}
	if !h.CPU.App.SubmitArg(cost, h.dispatchFn, seg) {
		h.DroppedSegs++ // socket backlog overflow
		h.tel.Record(&telemetry.Record{Layer: telemetry.LayerHost, Op: telemetry.OpDrop,
			Flow: seg.Flow, Seq: seg.Seq, N: int64(seg.Bytes), Note: "app-backlog"})
		h.segPool.Put(seg)
	}
}

// dispatch routes a serviced segment to its TCP endpoint, then returns it
// to the segment pool: the endpoints extract what they need synchronously
// and never retain the object. This is the single delivery point, so it
// stamps the final hop and feeds the forensics latency attribution.
func (h *Host) dispatch(seg *packet.Segment) {
	if !seg.SkipStamps {
		packet.Stamp(&seg.Stamps, packet.HopDeliver, h.sim.Now())
	}
	h.tel.ObserveDelivery(seg)
	if h.DeliverTap != nil {
		h.DeliverTap(seg)
	}
	h.route(seg)
	h.segPool.Put(seg)
}

func (h *Host) route(seg *packet.Segment) {
	if seg.Bytes == 0 && seg.Flags.Has(packet.FlagACK) {
		if snd, ok := h.senders[seg.Flow]; ok {
			snd.OnAck(seg)
			return
		}
	}
	if rcv, ok := h.receivers[seg.Flow]; ok {
		rcv.OnSegment(seg)
		return
	}
	// Data segments may piggyback ACK flags; fall back to sender lookup.
	if snd, ok := h.senders[seg.Flow]; ok {
		snd.OnAck(seg)
		return
	}
	h.UnmatchedSegs++
}

// sendACK transmits a receiver-generated ACK, charging the app core.
func (h *Host) sendACK(p *packet.Packet) {
	h.CPU.App.Charge(h.cfg.Costs.AppPerACKSent)
	h.TX.SendRaw(p)
}

// Connect establishes a simplex TCP connection carrying data from h to
// dst. Returns the sender (at h) and receiver (at dst). Both hosts must
// have their egress connected and IPs assigned.
func Connect(h, dst *Host, cfg tcp.SenderConfig) (*tcp.Sender, *tcp.Receiver) {
	if h.TX == nil || dst.TX == nil {
		panic("testbed: connect before egress wiring")
	}
	h.nextPort++
	flow := packet.FiveTuple{
		SrcIP: h.IP, DstIP: dst.IP,
		SrcPort: h.nextPort, DstPort: 5001,
		Proto: packet.ProtoTCP,
	}
	snd := tcp.NewSender(h.sim, cfg, flow, h.TX)
	rcv := tcp.NewReceiver(dst.sim, flow, dst.sendACK)
	dst.receivers[flow] = rcv
	h.senders[snd.AckFlow()] = snd
	return snd, rcv
}

// JugglerActiveLen sums the active-list lengths across the host's Juggler
// instances (Figure 15/16 sampling).
func (h *Host) JugglerActiveLen() int {
	n := 0
	for _, j := range h.Jugglers {
		n += j.ActiveLen()
	}
	return n
}

// JugglerTableLen sums the gro_table occupancy (flow-table entries)
// across the host's Juggler instances.
func (h *Host) JugglerTableLen() int {
	n := 0
	for _, j := range h.Jugglers {
		n += j.TableLen()
	}
	return n
}

// JugglerBufferedBytes sums the reordering-buffer occupancy across the
// host's Juggler instances.
func (h *Host) JugglerBufferedBytes() int {
	n := 0
	for _, j := range h.Jugglers {
		n += j.BufferedBytes()
	}
	return n
}

// JugglerStats merges the per-instance counters in queue order.
func (h *Host) JugglerStats() core.Stats {
	var s core.Stats
	for _, j := range h.Jugglers {
		s.Add(j.Stats)
	}
	return s
}

// SegPoolLive exposes the host segment pool's live (unreturned) count —
// the leak canary the fleet rollup samples.
func (h *Host) SegPoolLive() int64 { return h.segPool.Live() }

// AttachFleetProbe registers the host with the fleet aggregator as one
// lane under ToR tor: the delivery tap feeds the sojourn sketch and flow
// tracker, and the cadence ticker samples the stack's gauges and counters.
func (h *Host) AttachFleetProbe(agg *fleet.Aggregator, tor int) {
	lane := agg.AddHost(h.Name, tor, 1).Lane(0)
	h.DeliverTap = lane.ObserveDelivery
	lane.SetSample(func(cn *fleet.Counters) {
		cn.BufferedBytes = int64(h.JugglerBufferedBytes())
		cn.SegPoolLive = h.SegPoolLive()
		cn.TableFlows = int64(h.JugglerTableLen())
		if h.Adapt != nil {
			cn.Retunes = h.Adapt.Stats.Retunes
		}
		st := h.JugglerStats()
		cn.Retransmissions = st.Retransmissions
		cn.OfoHolds = st.FlushOfoTimeout
		cn.Drops = h.DroppedSegs
	})
	lane.Start(h.sim)
}

// OffloadCounters aggregates offload counters across RX queues.
func (h *Host) OffloadCounters() gro.Counters {
	var total gro.Counters
	for i := 0; i < h.RX.NumQueues(); i++ {
		total.Add(h.RX.Offload(i).Counters())
	}
	return total
}
