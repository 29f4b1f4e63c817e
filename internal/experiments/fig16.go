package experiments

import (
	"time"

	"juggler/internal/lb"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// fig16: the realistic-reordering counterpart of fig15 — statistics of the
// active-list length on the Clos with 256 flows into one receive queue at
// 20 Gb/s total, 50% background load, per-packet load balancing; once with
// a 40G receiver NIC and once with a 10G NIC (where TSO segments spend 3x
// longer on the wire and losses populate the loss-recovery list).
func fig16(o Options) *Table {
	t := &Table{
		ID:    "fig16",
		Title: "Active-list length statistics, realistic Clos reordering (256 flows)",
		Columns: []string{"nic", "active_mean", "active_p99", "active_max",
			"loss_list_p99", "loss_entries_per_s"},
	}
	rates := []units.BitRate{units.Rate40G, units.Rate10G}
	for _, row := range sweep.Map(o.Workers, len(rates), func(i int) []string {
		mean, p99, max, lossP99, lossPerSec := fig16Run(o.point(i, len(rates)), rates[i])
		return []string{rates[i].String(), fF(mean), fI(int64(p99)), fI(int64(max)),
			fI(int64(lossP99)), fF(lossPerSec)}
	}) {
		t.Add(row...)
	}
	t.Note("paper 40G: mean < 1, p99 < 5; 10G: p99 < 6 with a near-empty loss-recovery list (~4 entries/s)")
	return t
}

func fig16Run(o Options, nicRate units.BitRate) (mean, p99, max, lossP99, lossPerSec float64) {
	s := o.newSim()
	tb := newClos(s, 2*units.MB, lb.PolicyPerPacket)

	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.LinkRate = nicRate
	rcvCfg.Juggler.InseqTimeout = 13 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = 300 * time.Microsecond
	rcvCfg.RX.SteerToQueue0 = true
	receiver := tb.AddHost(0, rcvCfg)

	flows, senders := 256, 8
	if o.Quick {
		flows, senders = 128, 4
	}
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
	entered0 := int64(0)
	tick := sim.NewTicker(s, 100*time.Microsecond, func() {
		active.Add(float64(j.ActiveLen()))
		loss.Add(float64(j.LossLen()))
	})
	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(160 * time.Millisecond)
	s.RunFor(warm)
	entered0 = j.Stats.LossRecoveryEntered
	tick.Start()
	s.RunFor(dur)
	tick.Stop()

	return active.Mean(), active.Quantile(0.99), active.Max(),
		loss.Quantile(0.99),
		float64(j.Stats.LossRecoveryEntered-entered0) / dur.Seconds()
}

func init() {
	register("fig16", "active-list histogram under realistic Clos reordering", fig16)
}
