package experiments

import (
	"time"

	"juggler/internal/lb"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

func init() {
	// The fine-grained load-balancing comparison (§5.3.2, Figures 19/20):
	// 8 servers under ToR A send to 8 clients under ToR B over a 40G
	// two-spine Clos. Four pairs run 1MB all-to-all RPCs, four pairs run
	// 150B all-to-all RPCs (100Mb/s per server), open loop with Poisson
	// arrivals, multiplexed over 8 long-lived sessions per server-client
	// pair. The ToR uplinks use per-flow ECMP, per-TSO (Presto-like), or
	// per-packet load balancing; receivers run Juggler.
	register("fig20", entry{
		desc:    "RPC tail latency under ECMP / per-TSO / per-packet LB",
		title:   "RPC tail latency vs load under three LB policies (40G Clos)",
		columns: []string{"load_pct", "policy", "large_p99_ms", "large_p50_ms", "small_p99_us", "small_p50_us", "shed_pct", "max_uplink_q_KB"},
		notes:   []string{"paper: per-packet gives >=2x better small-RPC p99 than ECMP past 50% load, and beats per-TSO by 30us at 75% / 250us at 90%; buffer buildup at the ToRs follows the same order"},
		shape:   fig20Shape,
		fill: rows(func(o Options) []pair[int, string] {
			return grid(quickOr(o, []int{25, 50, 75, 90}, []int{50, 90}),
				[]string{lb.PolicyECMP, lb.PolicyPerTSO, lb.PolicyPerPacket})
		}, fig20Row),
	})
}

// fig20Row runs the RPC mix at one (load %, uplink policy) point.
func fig20Row(o Options, p pair[int, string]) []string {
	loadPct, policy := p.a, p.b
	s := o.newSim()

	// Deep drop-tail buffers, as in the paper's standard-kernel testbed:
	// buffer buildup under coarse load balancing is the phenomenon the
	// figure measures.
	tb := newClos(s, 4*units.MB, policy)

	hostCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	hostCfg.Juggler = jugglerAt(units.Rate40G, 400*time.Microsecond)
	hostCfg.Juggler.MaxFlows = 64

	const pairs = 4 // per class
	servers := make([]*testbed.Host, 0, 2*pairs)
	clients := make([]*testbed.Host, 0, 2*pairs)
	for i := 0; i < 2*pairs; i++ {
		servers = append(servers, tb.AddHost(0, hostCfg))
		clients = append(clients, tb.AddHost(1, hostCfg))
	}
	scfg := tcp.SenderConfig{MaxCwnd: 2 * units.MB}

	largeLat := stats.NewSampler(1 << 14)
	smallLat := stats.NewSampler(1 << 16)

	// Hosts 0..3: large class, all-to-all; hosts 4..7: small class. The
	// small class offers 100 Mb/s per server, the large class the rest of
	// the aggregate load on the 80G bisection.
	const sessions = 8
	smallPerServer := 100e6
	classes := [2]struct {
		lat       *stats.Sampler
		size      int
		perServer float64
	}{
		{largeLat, 1 * units.MB, (float64(loadPct)/100*80e9 - 4*smallPerServer) / 4},
		{smallLat, 150, smallPerServer},
	}
	// The window probes uplink occupancy and discards warm-up latencies.
	w := &watch{samplers: []*stats.Sampler{largeLat, smallLat}, ports: tb.Clos.UplinkPorts(0)}
	for i := 0; i < 2*pairs; i++ {
		c, first := classes[i/pairs], i/pairs*pairs
		var streams []*workload.RPCStream
		for jdx := first; jdx < first+pairs; jdx++ {
			for k := 0; k < sessions; k++ {
				snd, rcv := testbed.Connect(servers[i], clients[jdx], scfg)
				streams = append(streams, workload.NewRPCStream(s, snd, rcv, c.lat))
			}
		}
		g := workload.NewPoissonRPCGen(s, streams, c.size, c.perServer/8/float64(c.size))
		if i < pairs {
			// Windowed open loop: a large-RPC client sheds an arrival
			// rather than queueing forever behind a collapsed connection,
			// so an unstable policy shows up as shed load instead of
			// unbounded tails.
			g.MaxOutstanding = 4
		}
		w.gens = append(w.gens, g)
	}
	for _, g := range w.gens {
		g.Start()
	}
	t := measure(o, s, 60*time.Millisecond, 240*time.Millisecond, w)[0]
	maxQ := 0
	for _, p := range w.ports {
		maxQ = max(maxQ, p.Probe.MaxBytes)
	}
	return []string{fI(int64(loadPct)), policy, fMs(largeLat.P99()), fMs(largeLat.Median()),
		fUs(smallLat.P99()), fUs(smallLat.Median()), fPct(frac(t.Shed, t.Generated)), fI(int64(maxQ / 1024))}
}
