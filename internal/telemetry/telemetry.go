// Package telemetry is the cross-layer observability subsystem: a metrics
// registry (counters, gauges, and histograms — stats.QuantileSketch
// sketches exported at log2 edges), a bounded flight recorder of typed
// events stamped with simulation virtual time, and a wire-level packet
// capture — all exportable as a Prometheus-style text snapshot, a
// Chrome/Perfetto trace-event JSON, and a pcapng file.
//
// One Sink serves a whole simulation run. It rides on the *sim.Sim
// (telemetry.Attach / telemetry.FromSim) so every component — NIC, GRO,
// Juggler core, TCP, fabric, testbed hosts — picks it up at construction
// without any per-layer plumbing. Counters are views: a layer registers
// the int64 it already keeps (Registry.CounterOf) and the export reads
// it, so the per-packet path bumps one field whether telemetry is on or
// off. Everything else is nil-safe: a nil *Sink, nil *Gauge, nil
// *stats.QuantileSketch and so on record nothing and cost exactly one
// branch, so the disabled path stays allocation-free on the hot receive
// path (enforced by TestDisabledPathZeroAlloc).
//
// Determinism: all state is per-run, all iteration orders are registration
// orders, and timestamps come from the simulation clock — two runs with the
// same seed produce byte-identical exports.
package telemetry

import (
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Layer identifies which layer of the stack emitted an event.
type Layer uint8

// The instrumented layers, bottom up.
const (
	LayerFabric Layer = iota
	LayerNIC
	LayerGRO
	LayerCore
	LayerTCP
	LayerHost
	numLayers
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerFabric:
		return "fabric"
	case LayerNIC:
		return "nic"
	case LayerGRO:
		return "gro"
	case LayerCore:
		return "core"
	case LayerTCP:
		return "tcp"
	case LayerHost:
		return "host"
	}
	return "?"
}

// Kind classifies an event. The first seven kinds subsume the old
// internal/trace ring (flush/buffer/phase/evict/timeout/drop/retransmit);
// the rest extend coverage to the NIC, TCP and fabric layers.
type Kind uint8

// Event kinds emitted by the stack's telemetry hooks.
const (
	// KindFlush is a receive-offload flush (segment delivered upward).
	KindFlush Kind = iota
	// KindBuffer is a packet entering an out-of-order queue.
	KindBuffer
	// KindPhase is a Juggler flow phase transition.
	KindPhase
	// KindEvict is a flow eviction.
	KindEvict
	// KindTimeout is a timeout expiry (inseq/ofo/RTO).
	KindTimeout
	// KindDrop is a packet or segment dropped (queue, backlog, injector).
	KindDrop
	// KindRetransmit is a sender retransmission.
	KindRetransmit
	// KindCoalesce is a NIC interrupt firing (note: "timer" or "frames").
	KindCoalesce
	// KindPoll is one NAPI poll batch (N = packets drained).
	KindPoll
	// KindSend is a TSO burst leaving the sender NIC (N = payload bytes).
	KindSend
	// KindAck is a TCP acknowledgment carrying loss signal (SACK/dup).
	KindAck
	// KindOOO is a segment reaching TCP out of cumulative order.
	KindOOO
	// KindCwnd is a congestion-window change (N = new cwnd in bytes).
	KindCwnd
	// KindEnqueue is a fabric enqueue occupancy sample (N = queued bytes).
	KindEnqueue
	// KindRetune is an adapt-controller knob change (N = new value in ns,
	// note names the knob).
	KindRetune
	numKinds
)

// String names the kind (the first seven match the old trace package).
func (k Kind) String() string {
	switch k {
	case KindFlush:
		return "flush"
	case KindBuffer:
		return "buffer"
	case KindPhase:
		return "phase"
	case KindEvict:
		return "evict"
	case KindTimeout:
		return "timeout"
	case KindDrop:
		return "drop"
	case KindRetransmit:
		return "retransmit"
	case KindCoalesce:
		return "coalesce"
	case KindPoll:
		return "poll"
	case KindSend:
		return "send"
	case KindAck:
		return "ack"
	case KindOOO:
		return "ooo"
	case KindCwnd:
		return "cwnd"
	case KindEnqueue:
		return "enqueue"
	case KindRetune:
		return "retune"
	}
	return "?"
}

// KindByName maps a kind's String() name back to the Kind. ok is false
// for names this build does not know — the forward-compatibility contract
// of the recorded-run format: newer builds may export kinds older parsers
// preserve as strings instead of dropping.
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. Note must be a constant (or otherwise
// pre-existing) string so recording never allocates.
type Event struct {
	At    sim.Time
	Layer Layer
	Kind  Kind
	// Track groups events onto a named timeline (one per NIC queue, port,
	// ...); 0 is the per-layer default track.
	Track int32
	Flow  packet.FiveTuple
	Seq   uint32
	N     int64
	Note  string
}

// Options tunes a Sink. The zero value takes defaults.
type Options struct {
	// EventCap bounds the flight recorder (default 65536 events).
	EventCap int
	// PacketCap bounds the packet capture (default 65536 packets).
	PacketCap int
	// FabricQueues additionally records a KindEnqueue occupancy event per
	// fabric enqueue — detailed queue timelines at the price of ring churn.
	FabricQueues bool
	// Forensics tunes the flow-forensics subsystem (latency attribution,
	// decision audit rings, anomaly watchdog); zero takes the defaults.
	Forensics ForensicsOptions
}

// Sink is one run's telemetry pipeline: metrics + flight recorder +
// packet capture. A nil *Sink is valid everywhere and records nothing.
type Sink struct {
	sim  *sim.Sim
	opts Options

	// Metrics is the run's metric registry.
	Metrics *Registry
	// Recorder is the bounded flight recorder.
	Recorder *Recorder
	// Capture is the wire-level packet capture.
	Capture *Capture
	// Forensics is the flow-forensics state: per-layer latency
	// attribution, decision audit rings, anomaly watchdog.
	Forensics *Forensics

	tracks []string

	// pinned, while pinning is set, is the cached event timestamp for the
	// current NAPI batch. Every event inside one ReceiveBatch fires at the
	// same virtual instant, so the clock is read once per batch instead of
	// once per event; the recorder's event order is untouched.
	pinned  sim.Time
	pinning bool
}

// New creates a Sink bound to the simulation clock and attaches it to s so
// components built afterwards find it via FromSim.
func New(s *sim.Sim, o Options) *Sink {
	if o.EventCap <= 0 {
		o.EventCap = 1 << 16
	}
	if o.PacketCap <= 0 {
		o.PacketCap = 1 << 16
	}
	k := &Sink{
		sim:      s,
		opts:     o,
		Metrics:  newRegistry(),
		Recorder: newRecorder(o.EventCap),
		Capture:  newCapture(o.PacketCap),
		tracks:   []string{"events"},
	}
	k.Forensics = newForensics(k, o.Forensics)
	Attach(s, k)
	return k
}

// Attach installs k as the sim's telemetry sink.
func Attach(s *sim.Sim, k *Sink) { s.Telemetry = k }

// FromSim returns the sink attached to s, or nil when telemetry is off.
func FromSim(s *sim.Sim) *Sink {
	if s == nil {
		return nil
	}
	k, _ := s.Telemetry.(*Sink)
	return k
}

// FabricQueueEvents reports whether per-enqueue occupancy events are on.
func (k *Sink) FabricQueueEvents() bool { return k != nil && k.opts.FabricQueues }

// Reg returns the metric registry (nil when the sink is nil, which makes
// every registration a no-op).
func (k *Sink) Reg() *Registry {
	if k == nil {
		return nil
	}
	return k.Metrics
}

// Event records e, stamping the current virtual time; safe on nil.
func (k *Sink) Event(e Event) {
	if k == nil {
		return
	}
	if k.pinning {
		e.At = k.pinned
	} else {
		e.At = k.sim.Now()
	}
	k.Recorder.add(e)
}

// BeginBatch opens a batch window: until EndBatch, events are stamped
// with the (single) virtual instant captured here. The NIC brackets each
// ReceiveBatch with it — every upcall the batch triggers runs inside the
// same event-loop callback, so the pinned stamp equals what per-event
// Now() reads would have produced and exports stay byte-identical.
func (k *Sink) BeginBatch() {
	if k == nil {
		return
	}
	k.pinned = k.sim.Now()
	k.pinning = true
}

// EndBatch closes the window opened by BeginBatch; safe on nil.
func (k *Sink) EndBatch() {
	if k == nil {
		return
	}
	k.pinning = false
}

// Track registers (or looks up) a named event track and returns its id.
// Returns 0 (the default track) on a nil sink.
func (k *Sink) Track(name string) int32 {
	if k == nil {
		return 0
	}
	for i, n := range k.tracks {
		if n == name {
			return int32(i)
		}
	}
	k.tracks = append(k.tracks, name)
	return int32(len(k.tracks) - 1)
}

// TrackName returns the name registered for a track id.
func (k *Sink) TrackName(id int32) string {
	if k == nil || id < 0 || int(id) >= len(k.tracks) {
		return "events"
	}
	return k.tracks[id]
}

// Iface registers (or looks up) a named capture interface and returns its
// id. Returns -1 on a nil sink; CapturePacket ignores negative interfaces.
func (k *Sink) Iface(name string) int32 {
	if k == nil {
		return -1
	}
	return k.Capture.iface(name)
}

// CapturePacket records one wire packet on the given interface; inbound
// marks receive direction. Safe on nil sinks and negative interfaces.
func (k *Sink) CapturePacket(iface int32, inbound bool, p *packet.Packet) {
	if k == nil || iface < 0 {
		return
	}
	k.Capture.add(iface, k.sim.Now(), inbound, p)
}
