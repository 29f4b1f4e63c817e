package experiments

import (
	"fmt"
	"time"

	"juggler/internal/chaos"
	"juggler/internal/fabric"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// The adaptive experiment asks the question internal/adapt exists to
// answer: when the fabric's path-skew regime shifts mid-run, does a
// self-tuning receiver re-converge while a statically tuned one degrades?
//
// Both stacks start identically provisioned for the initial skew
// (ofo_timeout 250us against a 120us max extra delay). Mid-run the
// reorderer's delay bound jumps to 450us — past the static ofo_timeout, so
// the static stack's holes expire before the stragglers land and TCP sees
// out-of-order segments; the adaptive stack's detector watches the
// lateness climb and walks ofo_timeout up under it. Goodput is sampled
// over three windows (pre-shift, transient, converged) and phase-flap
// anomalies are counted after the transient, so the report shows both the
// recovery and its stability.

// Timeline constants. The shift happens one window after the pre-shift
// measurement starts; convergence is granted four further windows.
const (
	adaptTau1 = 120 * time.Microsecond // initial max extra delay
	adaptTau2 = 450 * time.Microsecond // post-shift max extra delay

	// adaptStaticOfo provisions both stacks for tau1 per the §5.2.1 rule
	// (max skew plus queueing margin) — deliberately under tau2.
	adaptStaticOfo = 250 * time.Microsecond

	// adaptWarmup is how long after the reorder ramp the pre-shift window
	// opens (flows established, detector EWMAs settled).
	adaptWarmup = 2 * time.Millisecond
)

// adaptiveReport is one stack's run through the skew-shift timeline.
type adaptiveReport struct {
	Stack string

	// Goodput (delivered bytes over window length) per window.
	PreGbps, ShiftGbps, ConvGbps float64

	// FlapsConv counts phase-flap anomalies inside the converged window —
	// the watchdog from the forensics PR acting as the control-loop
	// oracle: a well-tuned loop must not oscillate once converged.
	FlapsConv int

	// FinalOfo is the final applied ofo_timeout (the controller's live
	// value, or the static configuration).
	FinalOfo time.Duration
	// Retunes is the number of knob changes the controller applied (0 for
	// the static stack).
	Retunes int64
	// OOOSegs is the receive-side TCP out-of-order segment count — the
	// reordering the offload layer failed to hide.
	OOOSegs int64
}

// runAdaptive drives one stack (static or adaptive) through the skew-shift
// timeline and measures the three windows.
func runAdaptive(o Options, adaptive bool) *adaptiveReport {
	const (
		rate  = units.Rate10G
		flows = 4
	)
	window := quickOr(o, 10*time.Millisecond, 5*time.Millisecond)
	preStart := chaosRampAt + adaptWarmup
	shiftAt := preStart + window
	// Four windows between the shift and the converged measurement: the
	// controller converges in ~3 ticks, but TCP's congestion window — cut
	// by every dupack burst the transient leaked — regrows only additively
	// against the ofo-inflated RTT and needs the extra time to recover its
	// bandwidth-delay product.
	convStart := shiftAt + 4*window
	end := convStart + window

	s := o.newSim()
	// The flap watchdog and the controller's decision trail both live on
	// the telemetry sink; attach one if the AttachTelemetry hook did not.
	sink := telemetry.FromSim(s)
	if sink == nil {
		sink = telemetry.New(s, telemetry.Options{})
	}

	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.Juggler = jugglerAt(rate, adaptStaticOfo)
	o.tune(&rcvCfg.Juggler)
	rcvCfg.Adapt = adaptive

	// Forward path: sender egress → reorderer → receiver port → NIC.
	var r *chaos.Reorderer
	snd, rcv := newHostPair(s, rate, rcvCfg, "adapt->rcv", func(_ *testbed.Host, toReceiver *fabric.Port) fabric.Sink {
		r = chaos.NewReorderer(s, 0, adaptTau1, toReceiver)
		return r
	})

	sc := chaos.NewScenario("skew-shift")
	sc.At(chaosRampAt, fmt.Sprintf("reorder prob -> 0.25, max extra %v", adaptTau1),
		func() { r.Prob = 0.25 })
	sc.At(shiftAt, fmt.Sprintf("fabric skew shift: max extra %v -> %v", adaptTau1, adaptTau2),
		func() { r.MaxExtra = adaptTau2 })
	sc.Install(s)

	// Endless paced bulk flows with fabric headroom, so drop-tail queueing
	// cannot masquerade as fabric skew.
	rcvs := make([]*tcp.Receiver, 0, flows)
	for i := 0; i < flows; i++ {
		fsnd, frcv := testbed.Connect(snd, rcv, tcp.SenderConfig{
			PaceRate: rate / (flows + 1),
		})
		fsnd.SetInfinite()
		fsnd.MaybeSend()
		rcvs = append(rcvs, frcv)
	}

	// Its own timeline: four snapshots, and ooo_segs over the whole run.
	w := watch{rcvs: rcvs}
	delivered := func() int64 { return w.read(s).Bytes }
	var atPre, atShift, atConv, atEnd int64
	s.Schedule(preStart, func() { atPre = delivered() })
	s.Schedule(shiftAt, func() { atShift = delivered() })
	s.Schedule(convStart, func() { atConv = delivered() })
	s.Schedule(end, func() { atEnd = delivered() })

	s.RunFor(end)

	gbps := func(bytes int64, span time.Duration) float64 {
		return float64(units.Throughput(bytes, span)) / 1e9
	}
	rep := &adaptiveReport{
		Stack:     "static",
		PreGbps:   gbps(atShift-atPre, window),
		ShiftGbps: gbps(atConv-atShift, convStart-shiftAt),
		ConvGbps:  gbps(atEnd-atConv, window),
	}
	if adaptive {
		rep.Stack = "adaptive"
	}
	for _, a := range sink.Forensics.Anomalies() {
		if a.Kind == telemetry.AnomalyPhaseFlap && a.At >= sim.Time(convStart) {
			rep.FlapsConv++
		}
	}
	if rcv.Adapt != nil {
		_, rep.FinalOfo = rcv.Adapt.Timeouts()
		rep.Retunes = rcv.Adapt.Stats.Retunes
	} else if len(rcv.Jugglers) > 0 {
		rep.FinalOfo = rcv.Jugglers[0].Config().OfoTimeout
	}
	rep.OOOSegs = w.read(s).OOO
	return rep
}

func init() {
	// Static vs adaptive through the identical skew-shift timeline.
	register("adaptive", entry{
		desc:    "mid-run fabric skew shift: adaptive controller vs static timeouts",
		title:   "Mid-run fabric skew shift: self-tuning vs static timeouts",
		columns: []string{"stack", "pre_Gbps", "shift_Gbps", "conv_Gbps", "recovery", "ooo_segs", "flaps_conv", "final_ofo_us", "retunes"},
		notes: []string{fmt.Sprintf("skew shift at one window past warm-up: reorder delay bound %v -> %v with ofo_timeout provisioned %v; the adaptive row must recover goodput and hold it without phase flaps, the static row leaks reordering to TCP",
			adaptTau1, adaptTau2, adaptStaticOfo)},
		shape: adaptiveShape,
		fill: rows(fixed(false, true), func(o Options, adaptive bool) []string {
			rep := runAdaptive(o, adaptive)
			recovery := 0.0
			if rep.PreGbps > 0 {
				recovery = rep.ConvGbps / rep.PreGbps
			}
			return []string{rep.Stack, fF(rep.PreGbps), fF(rep.ShiftGbps), fF(rep.ConvGbps),
				fPct(recovery), fI(rep.OOOSegs), fI(int64(rep.FlapsConv)),
				fDurUs(rep.FinalOfo), fI(rep.Retunes)}
		}),
	})
}
