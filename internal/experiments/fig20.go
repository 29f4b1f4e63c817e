package experiments

import (
	"time"

	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// fig20 reproduces the fine-grained load-balancing comparison (§5.3.2,
// Figures 19/20): 8 servers under ToR A send to 8 clients under ToR B over
// a 40G two-spine Clos. Four pairs run 1MB all-to-all RPCs, four pairs run
// 150B all-to-all RPCs (100Mb/s per server), open loop with Poisson
// arrivals, multiplexed over 8 long-lived sessions per server-client pair.
// The ToR uplinks use per-flow ECMP, per-TSO (Presto-like), or per-packet
// load balancing; receivers run Juggler.
func fig20(o Options) *Table {
	t := &Table{
		ID:    "fig20",
		Title: "RPC tail latency vs load under three LB policies (40G Clos)",
		Columns: []string{"load_pct", "policy", "large_p99_ms", "large_p50_ms",
			"small_p99_us", "small_p50_us", "shed_pct", "max_uplink_q_KB"},
	}
	loads := []int{25, 50, 75, 90}
	if o.Quick {
		loads = []int{50, 90}
	}
	policies := []string{lb.PolicyECMP, lb.PolicyPerTSO, lb.PolicyPerPacket}
	type point struct {
		load   int
		policy string
	}
	var pts []point
	for _, load := range loads {
		for _, policy := range policies {
			pts = append(pts, point{load, policy})
		}
	}
	for _, row := range sweep.Map(o.Workers, len(pts), func(i int) []string {
		p := pts[i]
		r := fig20Run(o.point(i, len(pts)), p.load, p.policy)
		return []string{fI(int64(p.load)), p.policy, fMs(r.largeP99), fMs(r.largeP50),
			fUs(r.smallP99), fUs(r.smallP50), fPct(r.shed), fI(int64(r.maxQ / 1024))}
	}) {
		t.Add(row...)
	}
	t.Note("paper: per-packet gives >=2x better small-RPC p99 than ECMP past 50%% load, and beats per-TSO by 30us at 75%% / 250us at 90%%; buffer buildup at the ToRs follows the same order")
	return t
}

// fig20Result is one policy/load cell.
type fig20Result struct {
	largeP99, largeP50, smallP99, smallP50 float64
	shed                                   float64
	maxQ                                   int
}

func fig20Run(o Options, loadPct int, policy string) (res fig20Result) {
	s := o.newSim()

	// Deep drop-tail buffers, as in the paper's standard-kernel testbed:
	// buffer buildup under coarse load balancing is the phenomenon the
	// figure measures.
	tb := newClos(s, 4*units.MB, policy)

	hostCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	hostCfg.Juggler.InseqTimeout = 13 * time.Microsecond
	hostCfg.Juggler.OfoTimeout = 400 * time.Microsecond
	hostCfg.Juggler.MaxFlows = 64

	const pairs = 4 // per class
	servers := make([]*testbed.Host, 0, 2*pairs)
	clients := make([]*testbed.Host, 0, 2*pairs)
	for i := 0; i < 2*pairs; i++ {
		servers = append(servers, tb.AddHost(0, hostCfg))
		clients = append(clients, tb.AddHost(1, hostCfg))
	}
	// Probe uplink occupancy.
	for _, p := range tb.Clos.UplinkPorts(0) {
		p.Probe = &fabric.OccupancyProbe{}
	}

	scfg := tcp.SenderConfig{MaxCwnd: 2 * units.MB}

	largeLat := stats.NewSampler(1 << 14)
	smallLat := stats.NewSampler(1 << 16)

	// Hosts 0..3: large class, all-to-all; hosts 4..7: small class.
	const sessions = 8
	var gens []*workload.PoissonRPCGen

	// Aggregate offered load on the 80G bisection; small class contributes
	// 100 Mb/s per server.
	totalLoad := float64(loadPct) / 100 * 80e9
	smallPerServer := 100e6
	largePerServer := (totalLoad - 4*smallPerServer) / 4
	const largeSize = 1 * units.MB
	const smallSize = 150

	for i := 0; i < pairs; i++ {
		var streams []*workload.RPCStream
		for jdx := 0; jdx < pairs; jdx++ {
			for k := 0; k < sessions; k++ {
				snd, rcv := testbed.Connect(servers[i], clients[jdx], scfg)
				streams = append(streams, workload.NewRPCStream(s, snd, rcv, largeLat))
			}
		}
		rate := largePerServer / 8 / float64(largeSize)
		g := workload.NewPoissonRPCGen(s, streams, largeSize, rate)
		// Windowed open loop: a client sheds an arrival rather than
		// queueing forever behind a collapsed connection, so an unstable
		// policy shows up as shed load instead of unbounded tails.
		g.MaxOutstanding = 4
		gens = append(gens, g)
	}
	for i := pairs; i < 2*pairs; i++ {
		var streams []*workload.RPCStream
		for jdx := pairs; jdx < 2*pairs; jdx++ {
			for k := 0; k < sessions; k++ {
				snd, rcv := testbed.Connect(servers[i], clients[jdx], scfg)
				streams = append(streams, workload.NewRPCStream(s, snd, rcv, smallLat))
			}
		}
		rate := smallPerServer / 8 / float64(smallSize)
		gens = append(gens, workload.NewPoissonRPCGen(s, streams, smallSize, rate))
	}
	for _, g := range gens {
		g.Start()
	}
	warm := o.scale(60 * time.Millisecond)
	dur := o.scale(240 * time.Millisecond)
	s.RunFor(warm)
	largeLat.Reset() // discard warm-up samples
	smallLat.Reset()

	var gen0, shed0 int64
	for _, g := range gens {
		gen0 += g.Generated
		shed0 += g.Shed
	}
	s.RunFor(dur)
	var gen1, shed1 int64
	for _, g := range gens {
		g.Stop()
		gen1 += g.Generated
		shed1 += g.Shed
	}
	for _, p := range tb.Clos.UplinkPorts(0) {
		if p.Probe.MaxBytes > res.maxQ {
			res.maxQ = p.Probe.MaxBytes
		}
	}
	res.largeP99, res.largeP50 = largeLat.P99(), largeLat.Median()
	res.smallP99, res.smallP50 = smallLat.P99(), smallLat.Median()
	if d := gen1 - gen0; d > 0 {
		res.shed = float64(shed1-shed0) / float64(d)
	}
	return res
}

func init() {
	register("fig20", "RPC tail latency under ECMP / per-TSO / per-packet LB", fig20)
}
