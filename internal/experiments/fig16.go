package experiments

import (
	"fmt"
	"time"

	"juggler/internal/lb"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

func init() {
	// The realistic-reordering counterpart of fig15: statistics of the
	// active-list length on the Clos with 256 flows into one receive queue
	// at 20 Gb/s total, 50% background load, per-packet load balancing;
	// once with a 40G receiver NIC and once with a 10G NIC (where TSO
	// segments spend 3x longer on the wire and losses populate the
	// loss-recovery list).
	register("fig16", entry{
		desc:    "active-list histogram under realistic Clos reordering",
		title:   "Active-list length statistics, realistic Clos reordering (%d flows)",
		columns: []string{"nic", "active_mean", "active_p99", "active_max", "loss_list_p99", "loss_entries_per_s"},
		notes:   []string{"paper 40G: mean < 1, p99 < 5; 10G: p99 < 6 with a near-empty loss-recovery list (~4 entries/s)"},
		shape:   fig16Shape,
		// The title names the flow count, which -quick halves.
		fill: func(o Options, t *Table) {
			flows := quickOr(o, 256, 128)
			t.Title = fmt.Sprintf(t.Title, flows)
			rows(fixed(units.Rate40G, units.Rate10G), func(o Options, nic units.BitRate) []string { return fig16Row(o, nic, flows) })(o, t)
		},
	})
}

// fig16Row samples the receive queue's active and loss-recovery lists
// behind a receiver NIC of nicRate: flows flows, 32 from each sender.
func fig16Row(o Options, nicRate units.BitRate, flows int) []string {
	s := o.newSim()
	tb := newClos(s, 2*units.MB, lb.PolicyPerPacket)

	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.LinkRate = nicRate
	rcvCfg.Juggler = jugglerAt(units.Rate40G, 300*time.Microsecond)
	rcvCfg.RX.SteerToQueue0 = true
	receiver := tb.AddHost(0, rcvCfg)

	senders := flows / 32
	// 20G total offered: with the 10G NIC the downlink saturates and
	// induces losses, as in the paper's Figure 16(b).
	perFlow := 20 * units.Gbps / units.BitRate(flows)
	sndCfg := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	for h := 0; h < senders; h++ {
		sender := tb.AddHost(1, sndCfg)
		for f := 0; f < flows/senders; f++ {
			snd, _ := testbed.Connect(sender, receiver, tcp.SenderConfig{PaceRate: perFlow})
			snd.SetInfinite()
			start := time.Duration(h*flows+f) * 20 * time.Microsecond
			s.Schedule(start, snd.MaybeSend)
		}
	}
	for i := 0; i < 4; i++ {
		tb.AddBackgroundPair(1, 0, 5*units.Gbps)
	}

	var active, loss stats.Sampler
	j := receiver.Jugglers[0]
	tick := sim.NewTicker(s, 100*time.Microsecond, func() {
		active.Add(float64(j.ActiveLen()))
		loss.Add(float64(j.LossLen()))
	})
	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(160 * time.Millisecond)
	s.RunFor(warm)
	entered0 := j.Stats.LossRecoveryEntered
	tick.Start()
	s.RunFor(dur)
	tick.Stop()

	return []string{nicRate.String(), fF(active.Mean()), fI(int64(active.Quantile(0.99))),
		fI(int64(active.Max())), fI(int64(loss.Quantile(0.99))),
		fF(float64(j.Stats.LossRecoveryEntered-entered0) / dur.Seconds())}
}
