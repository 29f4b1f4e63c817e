package juggler

import (
	"io"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// ReorderPairConfig configures the two-host reordering apparatus
// (Figure 11): each packet is hashed uniformly at random onto one of two
// paths, the second delayed by ReorderDelay.
type ReorderPairConfig struct {
	// Rate is the link/NIC speed (default 10G, as in the paper's NetFPGA
	// testbed).
	Rate Rate
	// ReorderDelay is the extra delay of the second path (tau); 0 yields
	// perfectly in-order delivery.
	ReorderDelay time.Duration
	// DropProb drops packets uniformly at random before the receiver's
	// offload layer (the §5.2.1 loss injection).
	DropProb float64
	// Receiver selects the receiver's offload stack. The zero value is
	// StackVanilla.
	Receiver Stack
	// Tuning tunes Juggler when Receiver is StackJuggler (zero fields take
	// rate-appropriate defaults).
	Tuning Tuning
	// Seed drives all randomness (default 1).
	Seed int64
	// Telemetry attaches a full telemetry sink (metrics, flight recorder,
	// packet capture) before the topology is built, so every layer is
	// instrumented. Exports are read back with WriteTrace / WritePcap /
	// WriteMetrics.
	Telemetry bool
	// StampSample is the 1-in-N hop-stamp sampling rate: the sender NIC
	// stamps every Nth wire packet and the rest skip forensic hop
	// stamping, latency attribution and per-packet decision records.
	// 0 or 1 stamps every packet (the exact default).
	StampSample int
}

// ReorderPair is a running two-host simulation.
type ReorderPair struct {
	s  *sim.Sim
	tb *testbed.NetFPGAPair

	flows []*Flow
}

// NewReorderPair builds the apparatus.
func NewReorderPair(cfg ReorderPairConfig) *ReorderPair {
	if cfg.Rate == 0 {
		cfg.Rate = Rate10G
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Tuning == (Tuning{}) {
		cfg.Tuning = DefaultTuning(cfg.Rate)
	}
	s := sim.New(cfg.Seed)
	packet.AttachStampSampler(s, cfg.StampSample)
	if cfg.Telemetry {
		telemetry.New(s, telemetry.Options{})
	}
	rcvCfg := testbed.DefaultHostConfig(cfg.Receiver)
	rcvCfg.Juggler = cfg.Tuning.coreConfig()
	rcvCfg.Adapt = cfg.Tuning.Adapt
	tb := testbed.NewNetFPGAPair(s, units.BitRate(cfg.Rate), cfg.ReorderDelay,
		cfg.DropProb, testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvCfg)
	tb.Receiver.CPU.ResetWindows()
	return &ReorderPair{s: s, tb: tb}
}

// Flow is one TCP connection's sending endpoint with receive-side
// accounting.
type Flow struct {
	snd *tcp.Sender
	rcv *tcp.Receiver

	lastBytes int64
	lastAt    sim.Time
	s         *sim.Sim
}

// AddBulkFlow opens an endless bulk TCP flow from sender to receiver,
// optionally paced (0 = unpaced). The flow starts transmitting
// immediately.
func (p *ReorderPair) AddBulkFlow(pace Rate) *Flow {
	snd, rcv := testbed.Connect(p.tb.Sender, p.tb.Receiver, tcp.SenderConfig{
		PaceRate: units.BitRate(pace),
	})
	snd.SetInfinite()
	snd.MaybeSend()
	f := &Flow{snd: snd, rcv: rcv, s: p.s}
	p.flows = append(p.flows, f)
	return f
}

// RPCStream sends fixed-boundary messages over one persistent connection
// and records completion latency.
type RPCStream struct {
	stream *workload.RPCStream
	snd    *tcp.Sender
	lat    *stats.Sampler
}

// AddRPCStream opens a persistent connection for RPC traffic.
func (p *ReorderPair) AddRPCStream() *RPCStream {
	snd, rcv := testbed.Connect(p.tb.Sender, p.tb.Receiver, tcp.SenderConfig{})
	lat := stats.NewSampler(1024)
	return &RPCStream{stream: workload.NewRPCStream(p.s, snd, rcv, lat), snd: snd, lat: lat}
}

// Send enqueues one RPC of the given size now.
func (r *RPCStream) Send(size int) { r.stream.Send(size) }

// OnComplete registers a callback fired once per finished RPC (for
// closed-loop clients).
func (r *RPCStream) OnComplete(fn func()) { r.stream.OnComplete = fn }

// PrioritizeTail marks the stream's packets high priority whenever fewer
// than threshold bytes remain to be sent — pFabric-style SRPT
// approximation with two priority levels (§2.1). Pass 0 to restore static
// low priority.
func (r *RPCStream) PrioritizeTail(threshold int) {
	if threshold <= 0 {
		r.snd.Mark = nil
		return
	}
	r.snd.Mark = func() packet.Priority {
		if r.snd.RemainingToSend() < int64(threshold) {
			return packet.PrioHigh
		}
		return packet.PrioLow
	}
}

// Completed returns the number of finished RPCs.
func (r *RPCStream) Completed() int64 { return r.stream.Completed }

// LatencyMedian returns the median completion time.
func (r *RPCStream) LatencyMedian() time.Duration {
	return time.Duration(r.lat.Median() * float64(time.Second))
}

// LatencyP99 returns the 99th-percentile completion time.
func (r *RPCStream) LatencyP99() time.Duration {
	return time.Duration(r.lat.P99() * float64(time.Second))
}

// Run advances the simulation by d.
func (p *ReorderPair) Run(d time.Duration) { p.s.RunFor(d) }

// Now returns the current simulation time since start.
func (p *ReorderPair) Now() time.Duration { return time.Duration(p.s.Now()) }

// At schedules fn to run after delay d of simulated time.
func (p *ReorderPair) At(d time.Duration, fn func()) { p.s.Schedule(d, fn) }

// Delivered returns the flow's cumulative in-order bytes at the receiver.
func (f *Flow) Delivered() int64 { return f.rcv.Delivered() }

// Throughput returns the average rate since the previous Throughput call
// (or since the start).
func (f *Flow) Throughput() Rate {
	now := f.s.Now()
	cur := f.rcv.Delivered()
	d := now.Sub(f.lastAt)
	got := Rate(units.Throughput(cur-f.lastBytes, d))
	f.lastBytes, f.lastAt = cur, now
	return got
}

// OOOFraction returns the fraction of segments that reached TCP out of
// order (the reordering Juggler failed, or declined, to hide).
func (f *Flow) OOOFraction() float64 {
	if f.rcv.Stats.SegmentsIn == 0 {
		return 0
	}
	return float64(f.rcv.Stats.OOOSegments) / float64(f.rcv.Stats.SegmentsIn)
}

// Retransmits returns the sender's retransmitted packet count.
func (f *Flow) Retransmits() int64 { return f.snd.Stats.RetransPackets }

// EnableTrace attaches a bounded telemetry flight recorder (last n events)
// to the run and rebinds the receiver's Juggler instances to it, so core
// events are recorded even when full telemetry was not requested at
// construction. No-op for stacks without Juggler instances.
func (p *ReorderPair) EnableTrace(n int) {
	k := telemetry.FromSim(p.s)
	if k == nil {
		k = telemetry.New(p.s, telemetry.Options{EventCap: n})
	}
	for _, j := range p.tb.Receiver.Jugglers {
		j.Instrument(k)
	}
}

// DumpTrace writes the recorded event timeline to w as the "ev" lines of
// the recorded-run format (juggler-doctor -replay reads them back) and
// returns a per-kind summary line. The dump is best effort: a write error
// on w is dropped.
func (p *ReorderPair) DumpTrace(w io.Writer) string {
	k := telemetry.FromSim(p.s)
	if k == nil {
		return "(no events)"
	}
	_ = k.Recorder.WriteEvents(w)
	return k.Recorder.Summary()
}

// WriteTrace writes the run's flight recorder as Perfetto/Chrome
// trace-event JSON. No-op unless telemetry is enabled.
func (p *ReorderPair) WriteTrace(w io.Writer) error {
	return telemetry.FromSim(p.s).WriteTrace(w)
}

// WritePcap writes the run's packet capture as a pcapng file.
func (p *ReorderPair) WritePcap(w io.Writer) error {
	return telemetry.FromSim(p.s).WritePcap(w)
}

// WriteMetrics writes the run's metric snapshot in Prometheus text format.
func (p *ReorderPair) WriteMetrics(w io.Writer) error {
	return telemetry.FromSim(p.s).Reg().WriteProm(w)
}

// ReceiverTimeouts returns the receiver's current inseq/ofo timeouts —
// with Tuning.Adapt these are the controller's live values, not the
// configured starting point. Zeros for stacks without Juggler instances.
func (p *ReorderPair) ReceiverTimeouts() (inseq, ofo time.Duration) {
	js := p.tb.Receiver.Jugglers
	if len(js) == 0 {
		return 0, 0
	}
	c := js[0].Config()
	return c.InseqTimeout, c.OfoTimeout
}

// ReceiverStats summarizes the receiving host.
func (p *ReorderPair) ReceiverStats() HostStats {
	st := hostStats(p.tb.Receiver)
	for _, f := range p.flows {
		st.SegmentsIn += f.rcv.Stats.SegmentsIn
		st.OOOSegments += f.rcv.Stats.OOOSegments
		st.AcksSent += f.rcv.Stats.AcksSent
	}
	return st
}
