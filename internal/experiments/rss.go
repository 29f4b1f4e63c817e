package experiments

import (
	"time"

	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// extRSS is an extension probing the scaling note of §5.2.2 ("Juggler
// operates independently on a per-receive-queue basis") and footnote 4
// ("a single core cannot handle 40Gb/s in our testbed"): 32 reordered
// flows at 40G line rate into 1, 2, or 4 RSS queues, each queue's IRQ on
// its own core with a private Juggler instance. Spreading queues divides
// the RX-side work and each gro_table tracks proportionally fewer flows.
func extRSS(o Options) *Table {
	t := &Table{
		ID:    "ext-rss",
		Title: "Extension: RSS scaling at 40G with per-packet reordering",
		Columns: []string{"rx_queues", "tput_Gbps", "rx_core_max%",
			"active_p99_per_queue", "ooo_frac"},
	}
	counts := []int{1, 2, 4}
	for _, row := range sweep.Map(o.Workers, len(counts), func(i int) []string {
		tput, rxMax, activeP99, ooo := rssRun(o.point(i, len(counts)), counts[i])
		return []string{fI(int64(counts[i])), fGbps(tput), fPct(rxMax), fI(int64(activeP99)), fF(ooo)}
	}) {
		t.Add(row...)
	}
	t.Note("per-queue Juggler instances and per-queue cores divide both the CPU load and the flow-table pressure; memory scales linearly with queues (§5.2.2)")
	return t
}

func rssRun(o Options, queues int) (tput, rxMax, activeP99, ooo float64) {
	s := o.newSim()
	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.Juggler.InseqTimeout = 13 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = 700 * time.Microsecond
	rcvCfg.RX.Queues = queues
	// The delay-switch pair at 40G: systematic per-packet reordering.
	tb := testbed.NewNetFPGAPair(s, units.Rate40G, 500*time.Microsecond, 0,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvCfg)

	const flows = 32
	var rcvs []*tcp.Receiver
	for i := 0; i < flows; i++ {
		snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{
			PaceRate: units.Rate40G / flows,
		})
		snd.SetInfinite()
		start := time.Duration(i) * 50 * time.Microsecond
		s.Schedule(start, snd.MaybeSend)
		rcvs = append(rcvs, rcv)
	}

	var active stats.Sampler
	tick := sim.NewTicker(s, 100*time.Microsecond, func() {
		for _, j := range tb.Receiver.Jugglers {
			active.Add(float64(j.ActiveLen()))
		}
	})
	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(120 * time.Millisecond)
	s.RunFor(warm)
	tb.Receiver.CPU.ResetWindows()
	t0 := rxTotalsOf(rcvs...)
	tick.Start()
	s.RunFor(dur)
	tick.Stop()
	rx := rxTotalsOf(rcvs...).since(t0)
	for _, c := range tb.Receiver.CPU.RXCores() {
		if u := c.Utilization(); u > rxMax {
			rxMax = u
		}
	}
	return float64(units.Throughput(rx.bytes, dur)), rxMax, active.Quantile(0.99), rx.oooFrac()
}

func init() {
	register("ext-rss", entry{run: extRSS, desc: "RSS scaling with per-queue Juggler instances", shape: rssShape})
}
