package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/nic"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// netfpgaRun is one measurement on the Figure-11 apparatus: a 10G pair
// with per-packet reordering delay tau and optional receiver-side drops.
type netfpgaRun struct {
	tau      time.Duration
	jcfg     core.Config
	kind     testbed.OffloadKind
	dropProb float64
	// coalesce overrides the NIC coalescing (frames=0 means time-bound
	// only, the fig13/14 regime where tau0 = 125us applies).
	coalesce nic.RXConfig
	// senderCfg tunes the TCP sender.
	senderCfg tcp.SenderConfig
}

// results of one bulk-flow run.
type bulkResult struct {
	throughput     units.BitRate
	batchingExtent float64 // MTUs per data segment at the offload layer
	rxUtil         float64
	appUtil        float64
	oooFrac        float64 // OOO segments seen by TCP / total
	retransmits    int64
}

// runNetFPGABulk drives one infinite flow for warm+dur (both scaled by
// o) and measures over the last dur.
func runNetFPGABulk(o Options, r netfpgaRun, warm, dur time.Duration) bulkResult {
	warm, dur = o.scale(warm), o.scale(dur)
	s := o.newSim()
	sndHost := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	rcvHost := testbed.DefaultHostConfig(r.kind)
	rcvHost.Juggler = r.jcfg
	if r.coalesce.Queues > 0 {
		rcvHost.RX = r.coalesce
	}
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, r.tau, r.dropProb, sndHost, rcvHost)
	snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, r.senderCfg)
	snd.SetInfinite()
	snd.MaybeSend()

	s.RunFor(warm)
	c0 := tb.Receiver.OffloadCounters()
	t0 := rxTotalsOf(rcv)
	tb.Receiver.CPU.ResetWindows()

	s.RunFor(dur)

	c1 := tb.Receiver.OffloadCounters()
	rx := rxTotalsOf(rcv).since(t0)
	res := bulkResult{
		throughput:  units.Throughput(rx.bytes, dur),
		rxUtil:      tb.Receiver.CPU.RX.Utilization(),
		appUtil:     tb.Receiver.CPU.App.Utilization(),
		oooFrac:     rx.oooFrac(),
		retransmits: snd.Stats.RetransPackets,
	}
	if segs := c1.Segments - c0.Segments; segs > 0 {
		res.batchingExtent = float64(c1.Packets-c0.Packets) / float64(segs)
	}
	return res
}

// netfpgaTaus are the three reordering levels of Figures 12–14.
var netfpgaTaus = us(250, 500, 750)

// durs is the point type of a two-duration grid (τ × a timeout).
type durs = pair[time.Duration, time.Duration]

// coalesceTimeBound returns the fig13/14 NIC regime: pure 125us time-bound
// coalescing (no frame bound), making tau0 = 125us exact.
func coalesceTimeBound() nic.RXConfig {
	cfg := nic.DefaultRXConfig()
	cfg.CoalesceFrames = 0
	return cfg
}

func init() {
	// Batching extent and CPU usage versus inseq_timeout at three
	// reordering levels (10G line rate, single flow).
	register("fig12", entry{
		desc:    "batching extent & CPU vs inseq_timeout",
		title:   "Batching efficiency vs inseq_timeout (10G line rate, single flow)",
		columns: []string{"reorder_us", "inseq_timeout_us", "batching_MTUs", "rx_core%", "app_core%", "tput_Gbps"},
		notes:   []string{"paper: batching ~25 MTUs at timeout 0 (per-poll batching), rising to the max (~45) by ~52us at 10G; more timeout beyond that buys nothing"},
		shape:   fig12Shape,
		fill: rows(func(o Options) []durs {
			return grid(netfpgaTaus, quickOr(o, us(0, 10, 20, 30, 40, 52, 65, 80, 100), us(0, 20, 52, 100)))
		}, func(o Options, p durs) []string {
			tau, it := p.a, p.b
			jcfg := jugglerAt(units.Rate10G, tau+300*time.Microsecond) // ample: isolate inseq effect
			jcfg.InseqTimeout = it
			res := runNetFPGABulk(o, netfpgaRun{tau: tau, jcfg: jcfg, kind: testbed.OffloadJuggler},
				40*time.Millisecond, 120*time.Millisecond)
			return []string{fDurUs(tau), fDurUs(it), fF(res.batchingExtent),
				fPct(res.rxUtil), fPct(res.appUtil), fGbps(float64(res.throughput))}
		}),
	})

	// Single-flow throughput versus ofo_timeout at three reordering
	// levels. NIC coalescing is time-bound (tau0 = 125us) as in the
	// paper's testbed, so the needed ofo_timeout is roughly tau - tau0.
	register("fig13", entry{
		desc:    "throughput vs ofo_timeout under reordering",
		title:   "Throughput vs ofo_timeout (10G, single flow)",
		columns: []string{"reorder_us", "ofo_timeout_us", "tput_Gbps", "ooo_frac", "spurious_retrans"},
		notes:   []string{"paper: throughput reaches line rate once ofo_timeout >= tau - tau0 (tau0 = 125us interrupt coalescing); in this model the crossover lands at ~tau (+queueing jitter) because coalescing delays both sides of a hole equally"},
		shape:   fig13Shape,
		fill: rows(func(o Options) []durs {
			return grid(netfpgaTaus, quickOr(o, us(0, 50, 100, 200, 300, 400, 500, 600, 700, 800, 1000), us(0, 100, 400, 800)))
		}, func(o Options, p durs) []string {
			tau, ot := p.a, p.b
			res := runNetFPGABulk(o, netfpgaRun{
				tau: tau, jcfg: jugglerAt(units.Rate10G, ot), kind: testbed.OffloadJuggler, coalesce: coalesceTimeBound(),
			}, 40*time.Millisecond, 120*time.Millisecond)
			return []string{fDurUs(tau), fDurUs(ot), fGbps(float64(res.throughput)),
				fF(res.oooFrac), fI(res.retransmits)}
		}),
	})

	// 99th-percentile completion time of 10KB RPCs versus ofo_timeout
	// with receiver-side drops, at three reordering levels.
	register("fig14", entry{
		desc:    "RPC p99 vs ofo_timeout with drops",
		title:   "Small RPC 99th completion vs ofo_timeout (10KB RPCs, random drops)",
		columns: []string{"reorder_us", "ofo_timeout_us", "p99_ms", "median_ms", "rpcs"},
		notes:   []string{"paper: p99 flat for small ofo_timeout, growing once it exceeds tau - tau0 (loss recovery waits out the full timeout)"},
		shape:   fig14Shape,
		fill: rows(func(o Options) []durs {
			return grid(netfpgaTaus, quickOr(o, us(0, 100, 200, 300, 400, 600, 800, 1000), us(0, 200, 600, 1000)))
		}, fig14Row),
	})

	// 99th percentile of the number of active flows versus concurrent
	// flows at four reordering levels (10G total, 4 RX queues).
	register("fig15", entry{
		desc:    "active flows vs concurrent flows",
		title:   "99th percentile of active flows vs concurrent flows (10G into 4 RX queues)",
		columns: []string{"reorder_us", "flows", "active_p99", "active_mean", "active_max"},
		notes:   []string{"paper: grows with concurrency up to ~256 flows then drops (low-rate flows send single-MTU bursts); worst case < ~35 per gro_table"},
		shape:   fig15Shape,
		fill: rows(func(o Options) []pair[time.Duration, int] {
			return grid(quickOr(o, us(250, 500, 750, 1000), us(250, 500)),
				quickOr(o, []int{64, 128, 256, 512, 1024}, []int{64, 256, 1024}))
		}, fig15Row),
	})

	// The §5.2.1 text result: at 0.1% loss, a bulk flow loses throughput
	// only when ofo_timeout exceeds the stack's fast retransmission
	// recovery (Linux: ~100ms with its 200ms RTO floor; here scaled to the
	// simulated stack's 5ms RTO floor).
	register("lossofo", entry{
		desc:    "throughput vs ofo_timeout at 0.1% loss (§5.2.1)",
		title:   "Throughput vs ofo_timeout at 0.1% loss (10G bulk flow)",
		columns: []string{"ofo_timeout_ms", "tput_Gbps"},
		notes:   []string{"paper: throughput lost only when ofo_timeout > ~100ms; here the decline begins once ofo_timeout approaches the pipe's worth of window (ms scale), since every loss stalls delivery for the full timeout"},
		shape:   lossOfoShape,
		fill: rows(func(o Options) []time.Duration {
			return quickOr(o, us(100, 500, 1000, 2000, 5000, 20000, 100000), us(500, 5000, 100000))
		}, func(o Options, ot time.Duration) []string {
			// The window is pinned (no multiplicative decrease) so the
			// sweep isolates Juggler's recovery latency from congestion
			// control: the paper's CUBIC senders at datacenter RTTs
			// tolerate 0.1% loss.
			res := runNetFPGABulk(o, netfpgaRun{
				tau: 250 * time.Microsecond, jcfg: jugglerAt(units.Rate10G, ot), kind: testbed.OffloadJuggler,
				dropProb: 0.001, coalesce: coalesceTimeBound(),
				senderCfg: tcp.SenderConfig{RTOMin: 5 * time.Millisecond, FixedWindow: true},
			}, 100*time.Millisecond, 400*time.Millisecond)
			return []string{fMs(ot.Seconds()), fGbps(float64(res.throughput))}
		}),
	})
}

// fig14Row runs closed-loop 10KB RPCs through one (τ, ofo_timeout) point.
func fig14Row(o Options, p durs) []string {
	tau, ot := p.a, p.b
	s := o.newSim()
	rcvHost := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvHost.Juggler = jugglerAt(units.Rate10G, ot)
	rcvHost.RX = coalesceTimeBound()
	// 0.3% per-packet drops put the dropped-RPC cohort (~2% of RPCs)
	// squarely at the 99th percentile, so p99 measures loss recovery as in
	// the paper's figure.
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0.003,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvHost)
	// RTO floored well above the sweep so the ofo effect is not shortcut
	// by the retransmission timer; requests are issued closed loop (next
	// request once the previous completes) so the tail reflects per-RPC
	// recovery, not open-loop queueing.
	snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{RTOMin: 10 * time.Millisecond})
	lat := stats.NewSampler(8192)
	stream := workload.NewRPCStream(s, snd, rcv, lat)
	stream.OnComplete = func() { stream.Send(10 * units.KB) }
	stream.Send(10 * units.KB)
	s.RunFor(o.scale(2000 * time.Millisecond))
	stream.OnComplete = nil
	return []string{fDurUs(tau), fDurUs(ot), fMs(lat.P99()), fMs(lat.Median()), fI(stream.Completed)}
}

// fig15Row samples the active lists of four RX queues under n long-lived
// flows at reordering τ.
func fig15Row(o Options, p pair[time.Duration, int]) []string {
	tau, n := p.a, p.b
	s := o.newSim()
	rcvHost := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvHost.Juggler = jugglerAt(units.Rate10G, tau+200*time.Microsecond)
	rcvHost.Juggler.MaxFlows = 4096 // no eviction: measure demand, not the cap
	rcvHost.RX.Queues = 4
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvHost)
	// n long-lived flows share the 10G bottleneck; contention sets
	// per-flow windows (low-rate flows send single-MTU bursts).
	for i := 0; i < n; i++ {
		snd, _ := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{
			MaxCwnd: units.MB,
		})
		snd.SetInfinite()
		start := time.Duration(i) * 50 * time.Microsecond
		s.Schedule(start, snd.MaybeSend)
	}
	var h stats.Sampler
	tick := sim.NewTicker(s, 100*time.Microsecond, func() {
		for q := 0; q < 4; q++ {
			h.Add(float64(tb.Receiver.Jugglers[q].ActiveLen()))
		}
	})
	s.RunFor(o.scale(60 * time.Millisecond)) // warm up
	tick.Start()
	s.RunFor(o.scale(240 * time.Millisecond))
	tick.Stop()
	return []string{fDurUs(tau), fI(int64(n)), fI(int64(h.Quantile(0.99))),
		fF(h.Mean()), fI(int64(h.Max()))}
}
