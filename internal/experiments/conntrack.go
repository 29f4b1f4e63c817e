package experiments

import (
	"time"

	"juggler/internal/netfilter"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

func init() {
	// §3.1's software-engineering argument, made measurable: stateful
	// modules after GRO (iptables, nf_conntrack) rely on in-order delivery
	// to track the TCP state machine. A netfilter window tracker
	// inspecting the post-offload stream sees a flood of INVALID events on
	// a vanilla stack under reordering; behind Juggler the stream is in
	// order and tracking just works.
	register("abl-conntrack", entry{
		desc:    "conntrack INVALID events behind GRO vs Juggler (§3.1)",
		title:   "Stateful conntrack behind the offload layer (§3.1)",
		columns: []string{"stack", "reorder_us", "invalid_frac", "invalid_per_s", "tput_Gbps"},
		notes:   []string{"with strict filtering these INVALID segments would be dropped; encapsulating reordering inside GRO keeps downstream modules correct (§3.1)"},
		shape:   conntrackShape,
		fill:    rows(fixed(grid(stacks, us(0, 500))...), conntrackRow),
	})
}

// stacks are the two receive stacks the side-by-side comparisons sweep.
var stacks = []testbed.OffloadKind{testbed.OffloadVanilla, testbed.OffloadJuggler}

// conntrackRow runs one bulk flow at reordering tau through a receiver of
// the given kind with a conntrack window tracker behind its offload layer.
func conntrackRow(o Options, p pair[testbed.OffloadKind, time.Duration]) []string {
	kind, tau := p.a, p.b
	s := o.newSim()
	rcvCfg := testbed.DefaultHostConfig(kind)
	rcvCfg.Juggler = jugglerAt(units.Rate10G, tau+200*time.Microsecond)
	rcvCfg.Conntrack = &netfilter.Config{} // observe, don't drop
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvCfg)
	snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
	snd.SetInfinite()
	snd.MaybeSend()

	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(120 * time.Millisecond)
	s.RunFor(warm)
	inv0 := tb.Receiver.CT.Stats.Invalid
	acc0 := tb.Receiver.CT.Stats.Accepted
	t0 := rxTotalsOf(rcv)
	s.RunFor(dur)

	inv := tb.Receiver.CT.Stats.Invalid - inv0
	acc := tb.Receiver.CT.Stats.Accepted - acc0
	invFrac := 0.0
	if tot := inv + acc; tot > 0 {
		invFrac = float64(inv) / float64(tot)
	}
	return []string{kind.String(), fDurUs(tau), fF(invFrac), fF(float64(inv) / dur.Seconds()),
		fGbps(float64(units.Throughput(rxTotalsOf(rcv).since(t0).bytes, dur)))}
}
