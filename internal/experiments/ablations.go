package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// ablLinkedList compares merge representations on in-order line-rate
// traffic (§3.1): linked-list batching avoids reordering-induced segment
// explosion but costs ~50% more CPU than frags[] merging due to cache
// misses on traversal.
func ablLinkedList(o Options) *Table {
	t := &Table{
		ID:      "abl-linkedlist",
		Title:   "Merge representation CPU cost, in-order 10G line rate (§3.1)",
		Columns: []string{"offload", "rx_core%", "app_core%", "total%", "tput_Gbps", "vs_vanilla"},
	}
	kinds := []testbed.OffloadKind{
		testbed.OffloadVanilla, testbed.OffloadLinkedList,
		testbed.OffloadJuggler, testbed.OffloadNone,
	}
	// The vs_vanilla column divides by the vanilla row's total, so rows are
	// assembled after the whole sweep returns.
	results := sweep.Map(o.Workers, len(kinds), func(i int) bulkResult {
		po := o.point(i, len(kinds))
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout = 52 * time.Microsecond
		return runNetFPGABulk(po, netfpgaRun{jcfg: jcfg, kind: kinds[i]},
			40*time.Millisecond, 120*time.Millisecond)
	})
	base := results[0].rxUtil + results[0].appUtil
	for i, res := range results {
		total := res.rxUtil + res.appUtil
		rel := "1.00x"
		if base > 0 {
			rel = fF(total/base) + "x"
		}
		t.Add(kinds[i].String(), fPct(res.rxUtil), fPct(res.appUtil), fPct(total),
			fGbps(float64(res.throughput)), rel)
	}
	t.Note("paper: linked-list batching costs ~50%% more CPU than frags merging on in-order traffic; offload disabled is far worse still")
	return t
}

// ablBuildUp measures Remark 1: letting seq_next move backwards during the
// build-up phase avoids flushing the rest of a re-entering flow's burst out
// of order, reducing the segments sent up the stack (~6% in the paper's
// basic experiment). Flows must churn through eviction for re-entry to
// matter, so the table is kept small.
func ablBuildUp(o Options) *Table {
	t := &Table{
		ID:      "abl-buildup",
		Title:   "Build-up phase seq_next learning (Remark 1, §4.2.2)",
		Columns: []string{"buildup_learning", "segments_per_MB", "ooo_frac", "tput_Gbps"},
	}
	modes := []bool{false, true}
	results := sweep.Map(o.Workers, len(modes), func(i int) manyFlowsResult {
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout = 52 * time.Microsecond
		jcfg.OfoTimeout = 700 * time.Microsecond
		jcfg.MaxFlows = 8 // small table forces eviction churn
		jcfg.DisableBuildUpLearning = modes[i]
		return runManyFlows(o.point(i, len(modes)), jcfg, 32, 500*time.Microsecond)
	})
	for i, res := range results {
		label := "on"
		if modes[i] {
			label = "off (ablation)"
		}
		t.Add(label, fF(res.segsPerMB), fF(res.oooFrac), fGbps(res.tput))
	}
	if results[1].segsPerMB > 0 {
		t.Note("learning on sends %.1f%% fewer segments up the stack (paper: ~6%%)",
			(1-results[0].segsPerMB/results[1].segsPerMB)*100)
	}
	return t
}

// manyFlowsResult summarizes a multi-flow NetFPGA run.
type manyFlowsResult struct {
	segsPerMB float64
	oooFrac   float64
	tput      float64
	ofoTO     int64
	evictions int64
}

// runManyFlows drives n paced flows through the delay switch with a
// Juggler receiver and returns aggregate statistics.
func runManyFlows(o Options, jcfg core.Config, n int, tau time.Duration) manyFlowsResult {
	s := o.newSim()
	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.Juggler = jcfg
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvCfg)
	var rcvs []*tcp.Receiver
	for i := 0; i < n; i++ {
		snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, tcp.SenderConfig{
			PaceRate: units.Rate10G * 9 / 10 / units.BitRate(n),
		})
		snd.SetInfinite()
		start := time.Duration(i) * 100 * time.Microsecond
		s.Schedule(start, snd.MaybeSend)
		rcvs = append(rcvs, rcv)
	}
	warm := o.scale(40 * time.Millisecond)
	dur := o.scale(160 * time.Millisecond)
	s.RunFor(warm)
	t0 := rxTotalsOf(rcvs...)
	s.RunFor(dur)
	rx := rxTotalsOf(rcvs...).since(t0)
	j := tb.Receiver.Jugglers[0]
	res := manyFlowsResult{
		oooFrac:   rx.oooFrac(),
		tput:      float64(units.Throughput(rx.bytes, dur)),
		ofoTO:     j.Stats.OfoTimeouts,
		evictions: j.Stats.EvictionsActive + j.Stats.EvictionsInactive + j.Stats.EvictionsLoss,
	}
	if mb := float64(rx.bytes) / (1 << 20); mb > 0 {
		res.segsPerMB = float64(rx.segs) / mb
	}
	return res
}

// ablEviction compares the paper's phase-aware eviction (inactive flows
// first, loss-recovery flows spared) against naive FIFO eviction, across
// gro_table sizes (§4.3 and §5.2.2: 8 entries suffice for per-packet load
// balancing, 64 for 1ms of reordering).
func ablEviction(o Options) *Table {
	t := &Table{
		ID:    "abl-eviction",
		Title: "Eviction policy and gro_table size (§4.3)",
		Columns: []string{"policy", "max_flows", "tput_Gbps", "ooo_frac",
			"ofo_timeouts", "evictions"},
	}
	sizes := []int{4, 8, 16, 64}
	if o.Quick {
		sizes = []int{4, 64}
	}
	type point struct {
		policy core.EvictionPolicy
		size   int
	}
	var pts []point
	for _, policy := range []core.EvictionPolicy{core.EvictInactiveFirst, core.EvictFIFO} {
		for _, size := range sizes {
			pts = append(pts, point{policy, size})
		}
	}
	for _, row := range sweep.Map(o.Workers, len(pts), func(i int) []string {
		p := pts[i]
		name := "inactive-first"
		if p.policy == core.EvictFIFO {
			name = "fifo (ablation)"
		}
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout = 52 * time.Microsecond
		jcfg.OfoTimeout = 700 * time.Microsecond
		jcfg.MaxFlows = p.size
		jcfg.Eviction = p.policy
		res := runManyFlows(o.point(i, len(pts)), jcfg, 32, 500*time.Microsecond)
		return []string{name, fI(int64(p.size)), fGbps(res.tput), fF(res.oooFrac),
			fI(res.ofoTO), fI(res.evictions)}
	}) {
		t.Add(row...)
	}
	t.Note("paper: evicting flows with holes (active/loss-recovery) is counter-productive — they stall on re-entry until ofo_timeout; phase-aware eviction keeps small tables viable")
	return t
}

func init() {
	register("abl-linkedlist", entry{run: ablLinkedList, desc: "linked-list vs frags merge CPU (§3.1)", shape: linkedListShape})
	register("abl-buildup", entry{run: ablBuildUp, desc: "build-up seq_next learning (Remark 1)"})
	register("abl-eviction", entry{run: ablEviction, desc: "eviction policy & table size (§4.3)", shape: evictionShape})
}
