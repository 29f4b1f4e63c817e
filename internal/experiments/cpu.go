package experiments

import (
	"fmt"
	"time"

	"juggler/internal/lb"
	"juggler/internal/stats"
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

// cpuRow runs one Figure-9/10 scenario on the Figure 9/10 Clos: receiver
// under ToR 0, sender hosts under ToR 1, background load on the sending
// ToR's uplinks, all test flows aimed at a single receiver RX queue and
// rate-limited to 20 Gb/s in aggregate.
func cpuRow(o Options, sc cpuScenario) []string {
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
	w := &watch{host: receiver}
	perFlow := units.BitRate(int64(target) / int64(sc.flows))
	for h := 0; h < sc.senders; h++ {
		sender := tb.AddHost(1, sndCfg)
		for f := 0; f < sc.flows/sc.senders; f++ {
			snd, rcv := testbed.Connect(sender, receiver, tcp.SenderConfig{
				PaceRate: perFlow,
			})
			snd.SetInfinite()
			snd.MaybeSend()
			w.rcvs = append(w.rcvs, rcv)
		}
	}

	// Background: ~20G of cross traffic on the sending ToR's uplinks so
	// that (with the 20G foreground) the average uplink load is ~50%.
	for i := 0; i < 4; i++ {
		tb.AddBackgroundPair(1, 0, 5*units.Gbps)
	}

	t := measure(o, s, 40*time.Millisecond, 100*time.Millisecond, w)[0]
	return []string{sc.label, fPct(t.RXUtil), fPct(t.AppUtil), fPct(t.tput() / float64(target)),
		fmt.Sprintf("%.0f", t.perSec(t.Segs)), fF(frac(t.OOO, t.Segs)), fmt.Sprintf("%.0f", t.perSec(t.Acks))}
}

// cpuPoints are the four Figure-9/10 scenarios for the given flow and
// sender counts.
func cpuPoints(flows, senders int) []cpuScenario {
	return []cpuScenario{
		{"vanilla/no-reorder (ECMP)", testbed.OffloadVanilla, lb.PolicyECMP, flows, senders},
		{"juggler/no-reorder (ECMP)", testbed.OffloadJuggler, lb.PolicyECMP, flows, senders},
		{"vanilla/reorder (per-packet)", testbed.OffloadVanilla, lb.PolicyPerPacket, flows, senders},
		{"juggler/reorder (per-packet)", testbed.OffloadJuggler, lb.PolicyPerPacket, flows, senders},
	}
}

var (
	cpuColumns = []string{"scenario", "rx_core%", "app_core%", "tput_%target", "segs_per_s", "ooo_frac", "acks_per_s"}
	cpuNotes   = []string{"paper: vanilla+reorder saturates the app core and loses ~35% throughput while seeing ~15x more segments (~40% OOO) and ~15x more ACKs; juggler+reorder holds the 20G target within ~10% extra CPU of vanilla without reordering"}
)

func init() {
	register("fig9", entry{
		desc:    "CPU overhead, single flow",
		title:   "CPU overhead, single flow at 20Gb/s (40G Clos, 50% bg load)",
		columns: cpuColumns, notes: cpuNotes, shape: cpuShape,
		fill: rows(fixed(cpuPoints(1, 1)...), cpuRow),
	})
	// The title names the flow count, which -quick shrinks.
	register("fig10", entry{
		desc:    "CPU overhead, 256 flows",
		title:   "CPU overhead, %d flows at 20Gb/s total (40G Clos, 50%% bg load)",
		columns: cpuColumns, notes: cpuNotes, shape: cpuShape,
		fill: func(o Options, t *Table) {
			flows := quickOr(o, 256, 64)
			t.Title = fmt.Sprintf(t.Title, flows)
			rows(fixed(cpuPoints(flows, quickOr(o, 8, 4))...), cpuRow)(o, t)
		},
	})

	// §5.1.2: median end-to-end latency of 150 B RPCs with no competing
	// traffic is the same with and without Juggler.
	register("latency", entry{
		desc:    "150B RPC latency overhead (§5.1.2)",
		title:   "150B RPC latency, no competing traffic (§5.1.2)",
		columns: []string{"receiver", "median_us", "p99_us", "rpcs"},
		notes:   []string{"paper: medians identical with and without Juggler (Juggler is exactly GRO on in-order traffic); the absolute floor here is the 125us interrupt-coalescing delay"},
		shape:   latencyShape,
		fill: rows(fixed(testbed.OffloadVanilla, testbed.OffloadJuggler), func(o Options, kind testbed.OffloadKind) []string {
			s := o.newSim()
			tb := testbed.NewNetFPGAPair(s, units.Rate10G, 0, 0,
				testbed.DefaultHostConfig(testbed.OffloadVanilla),
				testbed.DefaultHostConfig(kind))
			snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{})
			lat := stats.NewSampler(4096)
			stream := workload.NewRPCStream(s, snd, rcv, lat)
			n := quickOr(o, 2000, 500)
			for i := 0; i < n; i++ {
				s.Schedule(time.Duration(i)*300*time.Microsecond, func() { stream.Send(150) })
			}
			s.RunFor(time.Duration(n)*300*time.Microsecond + 50*time.Millisecond)
			return []string{kind.String(), fUs(lat.Median()), fUs(lat.P99()), fI(stream.Completed)}
		}),
	})
}
