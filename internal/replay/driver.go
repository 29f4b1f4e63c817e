package replay

import (
	"time"

	"juggler/internal/adapt"
	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// drain is how long a replay keeps running after the trace's last
// arrival, so every timeout the trace armed gets to fire.
const drain = 10 * time.Millisecond

// Config configures one replay run.
type Config struct {
	Seed int64
	Core core.Config
	// Adapt wraps the Juggler in the self-tuning controller: Core's
	// timeouts become its starting point.
	Adapt bool
	// StampSample is the 1-in-N hop-stamp sampling rate (0 or 1 = all).
	StampSample int
	Telemetry   telemetry.Options

	// OnArrive and OnDeliver, when non-nil, observe every arrival and
	// every delivered segment (now is the delivery's virtual time).
	OnArrive  func(tp TimedPacket)
	OnDeliver func(now time.Duration, seg *packet.Segment)
}

// Run feeds tr's packets through a standalone Juggler with the telemetry
// sink attached, then runs drain past the last arrival. It returns the
// Juggler, the controller (nil unless cfg.Adapt is set) and the sink. Each arrival is
// captured on the "replay" interface and stamped at the gro-buffer hop;
// each sampled delivery is stamped at the deliver hop and attributed, so
// the forensics cover the gro_table hold — the only layer a standalone
// replay exercises. tr is not modified, so one trace can be run again.
func Run(tr *Trace, cfg Config) (*core.Juggler, *adapt.Controller, *telemetry.Sink) {
	s := sim.New(cfg.Seed)
	packet.AttachStampSampler(s, cfg.StampSample)
	sink := telemetry.New(s, cfg.Telemetry)
	iface := sink.Iface("replay")
	j := core.New(s, cfg.Core, func(seg *packet.Segment) {
		if !seg.SkipStamps {
			packet.Stamp(&seg.Stamps, packet.HopDeliver, s.Now())
			sink.ObserveDelivery(seg)
		}
		if cfg.OnDeliver != nil {
			cfg.OnDeliver(time.Duration(s.Now()), seg)
		}
	})
	var ctl *adapt.Controller
	var off gro.Offload = j
	if cfg.Adapt {
		ctl = adapt.NewController(s)
		off = ctl.Wrap(j)
	}

	// Sampling verdicts are taken in trace order at schedule time —
	// replay has no sender NIC, so this stands in for the wire TX. Each
	// arrival is its own one-packet batch.
	sampler := packet.StampSamplerFromSim(s)
	for _, tp := range tr.Packets {
		sampler.Apply(&tp.Pkt)
		s.Schedule(tp.At, func() {
			if cfg.OnArrive != nil {
				cfg.OnArrive(tp)
			}
			sink.CapturePacket(iface, true, &tp.Pkt)
			packet.StampPkt(&tp.Pkt, packet.HopGROBuffer, s.Now())
			off.ReceiveBatch([]*packet.Packet{&tp.Pkt})
		})
	}
	// Poll completions pace the timeout checks, as in the NIC.
	tick := sim.NewTicker(s, 5*time.Microsecond, off.PollComplete)
	tick.Start()
	s.RunFor(tr.Last() + drain)
	tick.Stop()
	return j, ctl, sink
}
