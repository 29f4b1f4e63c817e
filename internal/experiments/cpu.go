package experiments

import (
	"fmt"
	"time"

	"juggler/internal/lb"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// cpuScenario is one bar group of Figures 9/10: an offload kind under a
// load-balancing policy (ECMP = no reordering baseline; per-packet =
// reordering).
type cpuScenario struct {
	label   string
	kind    testbed.OffloadKind
	policy  string
	flows   int
	senders int
}

// cpuRun builds the Figure 9/10 Clos: receiver under ToR 0, sender hosts
// under ToR 1, background load on the sending ToR's uplinks, all test
// flows aimed at a single receiver RX queue and rate-limited to 20 Gb/s in
// aggregate.
func cpuRun(o Options, sc cpuScenario) (rxUtil, appUtil, tputFrac float64,
	segsPerSec, oooFrac, acksPerSec float64) {

	s := o.newSim()
	target := 20 * units.Gbps

	tb := newClos(s, 2*units.MB, sc.policy)

	rcvCfg := testbed.DefaultHostConfig(sc.kind)
	// The rule of thumb sizes inseq_timeout to one 64KB batch at the rate
	// bursts actually drain: the receiver takes 20G of test traffic on a
	// 40G NIC, so overlapping bursts can spread to ~26us — 30us keeps a
	// whole TSO burst in one segment.
	rcvCfg.Juggler.InseqTimeout = 30 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = 300 * time.Microsecond
	rcvCfg.RX.SteerToQueue0 = true
	receiver := tb.AddHost(0, rcvCfg)

	sndCfg := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	var receivers []*tcp.Receiver
	perFlow := units.BitRate(int64(target) / int64(sc.flows))
	for h := 0; h < sc.senders; h++ {
		sender := tb.AddHost(1, sndCfg)
		for f := 0; f < sc.flows/sc.senders; f++ {
			snd, rcv := testbed.Connect(sender, receiver, tcp.SenderConfig{
				PaceRate: perFlow,
			})
			snd.SetInfinite()
			snd.MaybeSend()
			receivers = append(receivers, rcv)
		}
	}

	// Background: ~20G of cross traffic on the sending ToR's uplinks so
	// that (with the 20G foreground) the average uplink load is ~50%.
	for i := 0; i < 4; i++ {
		tb.AddBackgroundPair(1, 0, 5*units.Gbps)
	}

	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(100 * time.Millisecond)
	s.RunFor(warm)
	receiver.CPU.ResetWindows()
	t0 := rxTotalsOf(receivers...)
	s.RunFor(dur)
	rx := rxTotalsOf(receivers...).since(t0)
	rxUtil = receiver.CPU.RX.Utilization()
	appUtil = receiver.CPU.App.Utilization()
	tputFrac = float64(units.Throughput(rx.bytes, dur)) / float64(target)
	segsPerSec = float64(rx.segs) / dur.Seconds()
	acksPerSec = float64(rx.acks) / dur.Seconds()
	oooFrac = rx.oooFrac()
	return
}

// cpuTable runs the four Figure-9/10 scenarios for a given flow count.
func cpuTable(o Options, id, title string, flows, senders int) *Table {
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"scenario", "rx_core%", "app_core%", "tput_%target",
			"segs_per_s", "ooo_frac", "acks_per_s"},
	}
	scenarios := []cpuScenario{
		{"vanilla/no-reorder (ECMP)", testbed.OffloadVanilla, lb.PolicyECMP, flows, senders},
		{"juggler/no-reorder (ECMP)", testbed.OffloadJuggler, lb.PolicyECMP, flows, senders},
		{"vanilla/reorder (per-packet)", testbed.OffloadVanilla, lb.PolicyPerPacket, flows, senders},
		{"juggler/reorder (per-packet)", testbed.OffloadJuggler, lb.PolicyPerPacket, flows, senders},
	}
	for _, row := range sweep.Map(o.Workers, len(scenarios), func(i int) []string {
		sc := scenarios[i]
		rx, app, tput, segs, ooo, acks := cpuRun(o.point(i, len(scenarios)), sc)
		return []string{sc.label, fPct(rx), fPct(app), fPct(tput),
			fmt.Sprintf("%.0f", segs), fF(ooo), fmt.Sprintf("%.0f", acks)}
	}) {
		t.Add(row...)
	}
	t.Note("paper: vanilla+reorder saturates the app core and loses ~35%% throughput while seeing ~15x more segments (~40%% OOO) and ~15x more ACKs; juggler+reorder holds the 20G target within ~10%% extra CPU of vanilla without reordering")
	return t
}

func fig9(o Options) *Table {
	return cpuTable(o, "fig9", "CPU overhead, single flow at 20Gb/s (40G Clos, 50% bg load)", 1, 1)
}

func fig10(o Options) *Table {
	flows, senders := 256, 8
	if o.Quick {
		flows, senders = 64, 4
	}
	return cpuTable(o, "fig10",
		fmt.Sprintf("CPU overhead, %d flows at 20Gb/s total (40G Clos, 50%% bg load)", flows),
		flows, senders)
}

// latencyOverhead reproduces §5.1.2: median end-to-end latency of 150 B
// RPCs with no competing traffic is the same with and without Juggler.
func latencyOverhead(o Options) *Table {
	t := &Table{
		ID:      "latency",
		Title:   "150B RPC latency, no competing traffic (§5.1.2)",
		Columns: []string{"receiver", "median_us", "p99_us", "rpcs"},
	}
	kinds := []testbed.OffloadKind{testbed.OffloadVanilla, testbed.OffloadJuggler}
	for _, row := range sweep.Map(o.Workers, len(kinds), func(pi int) []string {
		kind, po := kinds[pi], o.point(pi, len(kinds))
		s := po.newSim()
		tb := testbed.NewNetFPGAPair(s, units.Rate10G, 0, 0,
			testbed.DefaultHostConfig(testbed.OffloadVanilla),
			testbed.DefaultHostConfig(kind))
		snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
		lat := stats.NewSampler(4096)
		stream := workload.NewRPCStream(s, snd, rcv, lat)
		n := 2000
		if po.Quick {
			n = 500
		}
		for i := 0; i < n; i++ {
			i := i
			s.Schedule(time.Duration(i)*300*time.Microsecond, func() { stream.Send(150) })
		}
		s.RunFor(time.Duration(n)*300*time.Microsecond + 50*time.Millisecond)
		return []string{kind.String(), fUs(lat.Median()), fUs(lat.P99()), fI(stream.Completed)}
	}) {
		t.Add(row...)
	}
	t.Note("paper: medians identical with and without Juggler (Juggler is exactly GRO on in-order traffic); the absolute floor here is the 125us interrupt-coalescing delay")
	return t
}

func init() {
	register("fig9", "CPU overhead, single flow", fig9)
	register("fig10", "CPU overhead, 256 flows", fig10)
	register("latency", "150B RPC latency overhead (§5.1.2)", latencyOverhead)
}
