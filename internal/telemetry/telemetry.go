// Package telemetry is the cross-layer observability subsystem: a metrics
// registry (counters, gauges, and histograms — stats.QuantileSketch
// sketches exported at log2 edges), a bounded flight recorder of the one
// Record type stamped with simulation virtual time, and a wire-level packet
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

// Layer identifies which layer of the stack emitted a record.
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

// Op classifies a record: what happened, in rough datapath order.
type Op uint8

// The record ops. Flush, phase, evict, timeout, pass and retune records
// that carry a Cause are datapath decisions and also feed the forensics
// tallies; every other op is a plain occurrence.
const (
	// OpFlush is a receive-offload flush (segment delivered upward). Cause
	// says which Table-2 condition closed it ("sealed", "full",
	// "boundary", "inseq_timeout", "ofo_timeout", "evict", "final", ...).
	OpFlush Op = iota
	// OpBuffer is a packet entering an out-of-order queue.
	OpBuffer
	// OpPhase is a Juggler flow phase transition. Note carries "from>to".
	OpPhase
	// OpEvict is a flow eviction from the gro_table.
	OpEvict
	// OpTimeout is a timeout expiry (inseq/ofo/RTO): the firing itself;
	// any resulting flushes are separate OpFlush records.
	OpTimeout
	// OpPass is a packet that bypassed buffering (retransmission,
	// duplicate, pass-through control packet).
	OpPass
	// OpDrop is a packet or segment dropped (queue, backlog, injector).
	OpDrop
	// OpRetransmit is a sender retransmission.
	OpRetransmit
	// OpCoalesce is a NIC interrupt firing (note: "timer" or "frames").
	OpCoalesce
	// OpPoll is one NAPI poll batch (N = packets drained).
	OpPoll
	// OpSend is a TSO burst leaving the sender NIC (N = payload bytes).
	OpSend
	// OpAck is a TCP acknowledgment carrying loss signal (SACK/dup).
	OpAck
	// OpOOO is a segment reaching TCP out of cumulative order.
	OpOOO
	// OpCwnd is a congestion-window change (N = new cwnd in bytes).
	OpCwnd
	// OpRetune is an adapt-controller knob change (N = new value in ns,
	// note names the knob). Retunes are host-scoped, not flow-scoped:
	// Forensics.GlobalDecisions reads them, not a flow's Decisions.
	OpRetune
	// NumOps sizes per-op arrays.
	NumOps = int(OpRetune) + 1
)

var opNames = [NumOps]string{"flush", "buffer", "phase", "evict", "timeout", "pass",
	"drop", "retransmit", "coalesce", "poll", "send", "ack", "ooo", "cwnd", "retune"}

// String names the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// OpByName maps an op's String() name back to the Op. ok is false for
// names this build does not know — the forward-compatibility contract of
// the recorded-run format: newer builds may export ops older parsers
// preserve as strings instead of dropping.
func OpByName(name string) (Op, bool) {
	for o := Op(0); int(o) < NumOps; o++ {
		if opNames[o] == name {
			return o, true
		}
	}
	return 0, false
}

// Record is the one telemetry record: an occurrence stamped with virtual
// time, and — when it carries a Cause — a datapath decision with the flow
// state that produced it. Cause and Note must be constant (or otherwise
// pre-existing) strings so recording never allocates.
type Record struct {
	At    sim.Time
	Layer Layer
	Op    Op
	// Hole reports whether the flow's reassembly had a gap at the instant
	// of a decision; HoleSeq is the first missing byte when it did.
	Hole bool
	// Track groups records onto a named timeline (one per NIC queue, port,
	// ...); 0 is the per-layer default track.
	Track int32
	// Cause is the condition that fired, a constant string; empty for
	// occurrences that are not decisions.
	Cause string
	Flow  packet.FiveTuple
	// Seq/EndSeq bound the bytes a decision acted on (EndSeq==Seq for
	// decisions about a point, e.g. phase transitions).
	Seq, EndSeq uint32
	// SeqNext is the flow's in-order flush floor at the instant of the
	// decision (Juggler's seq_next; 0 when unknown).
	SeqNext uint32
	HoleSeq uint32
	// QPkts/QBytes are the flow's out-of-order queue occupancy after the
	// decision took effect.
	QPkts, QBytes int64
	// N is an op-specific magnitude (packets flushed, bytes, ns held, ...).
	N int64
	// Note is optional constant detail (phase transitions use "from>to").
	Note string
}

// Options tunes a Sink. The zero value takes defaults.
type Options struct {
	// EventCap bounds the flight recorder (default 65536 records).
	EventCap int
}

// packetCap bounds the packet capture.
const packetCap = 1 << 16

// Sink is one run's telemetry pipeline: metrics + flight recorder +
// packet capture. A nil *Sink is valid everywhere and records nothing.
type Sink struct {
	sim *sim.Sim

	// Metrics is the run's metric registry.
	Metrics *Registry
	// Recorder is the bounded flight recorder.
	Recorder *Recorder
	// Capture is the wire-level packet capture.
	Capture *Capture
	// Forensics is the flow-forensics state: per-layer latency
	// attribution, decision tallies, anomaly watchdog.
	Forensics *Forensics

	tracks []string
}

// New creates a Sink bound to the simulation clock and attaches it to s so
// components built afterwards find it via FromSim.
func New(s *sim.Sim, o Options) *Sink {
	if o.EventCap <= 0 {
		o.EventCap = 1 << 16
	}
	k := &Sink{
		sim:      s,
		Metrics:  newRegistry(),
		Recorder: newRecorder(o.EventCap),
		Capture:  newCapture(packetCap),
		tracks:   []string{"events"},
	}
	k.Forensics = newForensics(k)
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

// Reg returns the metric registry (nil when the sink is nil, which makes
// every registration a no-op).
func (k *Sink) Reg() *Registry {
	if k == nil {
		return nil
	}
	return k.Metrics
}

// Record stamps the current virtual time into *r and stores it; safe on
// nil. Every record is copied once, into the flight recorder, the one
// store of records. A record with a Cause is a decision and also updates
// the forensics tallies and watchdog. Records are passed by pointer because
// a Record is ~100 bytes and the hot path writes several per flush. The
// nil test sits in this inlinable wrapper so that, with telemetry off, the
// caller's Record literal is never built.
func (k *Sink) Record(r *Record) {
	if k != nil {
		k.record(r)
	}
}

func (k *Sink) record(r *Record) {
	r.At = k.sim.Now()
	k.Recorder.add(r)
	if r.Cause != "" {
		k.Forensics.decide(r)
	}
}

// Track registers (or looks up) a named record track and returns its id.
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
