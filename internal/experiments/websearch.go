package experiments

import (
	"time"

	"juggler/internal/lb"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// extWebSearch is an extension beyond the paper's fixed-size RPCs: the
// DCTCP web-search flow-size mix (heavy-tailed: most flows short, most
// bytes in long flows) over the Figure-19 Clos at 60% load, comparing the
// three load-balancing policies with Juggler receivers. Short-flow tails
// are where fine-grained balancing pays; long-flow completion shows
// nothing is sacrificed for it.
func extWebSearch(o Options) *Table {
	t := &Table{
		ID:    "ext-websearch",
		Title: "Extension: web-search flow mix across LB policies (60% load)",
		Columns: []string{"policy", "short_p50_us", "short_p99_us",
			"long_p50_ms", "long_p99_ms", "completed"},
	}
	policies := []string{lb.PolicyECMP, lb.PolicyPerTSO, lb.PolicyPerPacket}
	for _, row := range sweep.Map(o.Workers, len(policies), func(i int) []string {
		shortLat, longLat, done := webSearchRun(o.point(i, len(policies)), policies[i])
		return []string{policies[i],
			fUs(shortLat.Median()), fUs(shortLat.P99()),
			fMs(longLat.Median()), fMs(longLat.P99()),
			fI(done)}
	}) {
		t.Add(row...)
	}
	t.Note("heavy-tailed mix: the short-flow p99 separates the policies the same way the paper's 150B RPCs do; long flows complete comparably everywhere")
	return t
}

func webSearchRun(o Options, policy string) (shortLat, longLat *stats.Sampler, completed int64) {
	s := o.newSim()
	tb := newClos(s, 4*units.MB, policy)
	hostCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	hostCfg.Juggler.InseqTimeout = 13 * time.Microsecond
	hostCfg.Juggler.OfoTimeout = 400 * time.Microsecond

	const pairs = 4
	shortLat = stats.NewSampler(1 << 15)
	longLat = stats.NewSampler(1 << 12)
	// Each completion lands in the sampler of its size class.
	classify := func(size int) *stats.Sampler {
		if size < shortFlowCutoff {
			return shortLat
		}
		return longLat
	}
	dist := workload.WebSearchWorkload()

	var gens []*workload.PoissonRPCGen
	load := 0.6 * 80e9 / float64(pairs) // bits/s per server
	scfg := tcp.SenderConfig{ECN: true, MaxCwnd: 2 * units.MB}
	for i := 0; i < pairs; i++ {
		server := tb.AddHost(0, hostCfg)
		var streams []*workload.RPCStream
		for jdx := 0; jdx < 2; jdx++ {
			client := tb.AddHost(1, hostCfg)
			for k := 0; k < 8; k++ {
				snd, rcv := testbed.Connect(server, client, scfg)
				st := workload.NewRPCStream(s, snd, rcv, nil)
				st.Classify = classify
				streams = append(streams, st)
			}
		}
		g := workload.NewPoissonRPCGen(s, streams, 1, load/8/dist.Mean())
		g.Dist = dist
		g.MaxOutstanding = 8
		gens = append(gens, g)
		g.Start()
	}

	s.RunFor(o.scale(60 * time.Millisecond)) // warm
	shortLat.Reset()                         // drop warm-up samples
	longLat.Reset()
	s.RunFor(o.scale(240 * time.Millisecond))
	for _, g := range gens {
		g.Stop()
		for _, st := range g.Streams() {
			completed += st.Completed
		}
	}
	return shortLat, longLat, completed
}

// shortFlowCutoff splits the mix into the latency-sensitive class.
const shortFlowCutoff = 100 * 1024

func init() {
	register("ext-websearch", entry{run: extWebSearch, desc: "heavy-tailed web-search mix across LB policies"})
}
