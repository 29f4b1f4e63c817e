package experiments

import (
	"time"

	"juggler/internal/netfilter"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// ablConntrack makes §3.1's software-engineering argument measurable:
// stateful modules after GRO (iptables, nf_conntrack) rely on in-order
// delivery to track the TCP state machine. A netfilter window tracker
// inspecting the post-offload stream sees a flood of INVALID events on a
// vanilla stack under reordering; behind Juggler the stream is in order
// and tracking just works.
func ablConntrack(o Options) *Table {
	t := &Table{
		ID:    "abl-conntrack",
		Title: "Stateful conntrack behind the offload layer (§3.1)",
		Columns: []string{"stack", "reorder_us", "invalid_frac", "invalid_per_s",
			"tput_Gbps"},
	}
	type point struct {
		kind testbed.OffloadKind
		tau  time.Duration
	}
	var pts []point
	for _, kind := range []testbed.OffloadKind{testbed.OffloadVanilla, testbed.OffloadJuggler} {
		for _, tau := range []time.Duration{0, 500 * time.Microsecond} {
			pts = append(pts, point{kind, tau})
		}
	}
	for _, row := range sweep.Map(o.Workers, len(pts), func(i int) []string {
		p := pts[i]
		invFrac, invPerSec, tput := conntrackRun(o.point(i, len(pts)), p.kind, p.tau)
		return []string{p.kind.String(), fDurUs(p.tau), fF(invFrac), fF(invPerSec), fGbps(tput)}
	}) {
		t.Add(row...)
	}
	t.Note("with strict filtering these INVALID segments would be dropped; encapsulating reordering inside GRO keeps downstream modules correct (§3.1)")
	return t
}

func conntrackRun(o Options, kind testbed.OffloadKind, tau time.Duration) (invFrac, invPerSec, tput float64) {
	s := o.newSim()
	rcvCfg := testbed.DefaultHostConfig(kind)
	rcvCfg.Juggler.InseqTimeout = 52 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = tau + 200*time.Microsecond
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
	if tot := inv + acc; tot > 0 {
		invFrac = float64(inv) / float64(tot)
	}
	invPerSec = float64(inv) / dur.Seconds()
	tput = float64(units.Throughput(rxTotalsOf(rcv).since(t0).bytes, dur))
	return
}

func init() {
	register("abl-conntrack", entry{run: ablConntrack, desc: "conntrack INVALID events behind GRO vs Juggler (§3.1)", shape: conntrackShape})
}
