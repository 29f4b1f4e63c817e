package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

func init() {
	// Merge representations on in-order line-rate traffic (§3.1):
	// linked-list batching avoids reordering-induced segment explosion but
	// costs ~50% more CPU than frags[] merging due to cache misses on
	// traversal. The vs_vanilla column divides by the vanilla row's total,
	// so the rows are assembled after the whole sweep returns.
	register("abl-linkedlist", entry{
		desc:    "linked-list vs frags merge CPU (§3.1)",
		title:   "Merge representation CPU cost, in-order 10G line rate (§3.1)",
		columns: []string{"offload", "rx_core%", "app_core%", "total%", "tput_Gbps", "vs_vanilla"},
		notes:   []string{"paper: linked-list batching costs ~50% more CPU than frags merging on in-order traffic; offload disabled is far worse still"},
		shape:   linkedListShape,
		fill: combine(fixed(testbed.OffloadVanilla, testbed.OffloadLinkedList, testbed.OffloadJuggler, testbed.OffloadNone),
			func(o Options, kind testbed.OffloadKind) bulkResult {
				return runNetFPGABulk(o, netfpgaRun{jcfg: jugglerAt(units.Rate10G, core.DefaultConfig().OfoTimeout), kind: kind},
					40*time.Millisecond, 120*time.Millisecond)
			},
			func(t *Table, kinds []testbed.OffloadKind, results []bulkResult) {
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
			}),
	})

	// Remark 1: letting seq_next move backwards during the build-up phase
	// avoids flushing the rest of a re-entering flow's burst out of order,
	// reducing the segments sent up the stack (~6% in the paper's basic
	// experiment). Flows must churn through eviction for re-entry to
	// matter, so the table is kept small.
	register("abl-buildup", entry{
		desc:    "build-up seq_next learning (Remark 1)",
		title:   "Build-up phase seq_next learning (Remark 1, §4.2.2)",
		columns: []string{"buildup_learning", "segments_per_MB", "ooo_frac", "tput_Gbps"},
		shape:   buildUpShape,
		fill: combine(fixed(false, true), func(o Options, disable bool) manyFlowsResult {
			jcfg := jugglerAt(units.Rate10G, 700*time.Microsecond)
			jcfg.MaxFlows = 8 // small table forces eviction churn
			jcfg.DisableBuildUpLearning = disable
			return runManyFlows(o, jcfg, 32, 500*time.Microsecond)
		}, func(t *Table, disabled []bool, results []manyFlowsResult) {
			for i, res := range results {
				label := "on"
				if disabled[i] {
					label = "off (ablation)"
				}
				t.Add(label, fF(res.segsPerMB), fF(res.oooFrac), fGbps(res.tput))
			}
			if results[1].segsPerMB > 0 {
				t.Note("learning on sends %.1f%% fewer segments up the stack (paper: ~6%%)",
					(1-results[0].segsPerMB/results[1].segsPerMB)*100)
			}
		}),
	})

	// The paper's phase-aware eviction (inactive flows first,
	// loss-recovery flows spared) against naive FIFO eviction, across
	// gro_table sizes (§4.3 and §5.2.2: 8 entries suffice for per-packet
	// load balancing, 64 for 1ms of reordering).
	register("abl-eviction", entry{
		desc:    "eviction policy & table size (§4.3)",
		title:   "Eviction policy and gro_table size (§4.3)",
		columns: []string{"policy", "max_flows", "tput_Gbps", "ooo_frac", "ofo_timeouts", "evictions"},
		notes:   []string{"paper: evicting flows with holes (active/loss-recovery) is counter-productive — they stall on re-entry until ofo_timeout; phase-aware eviction keeps small tables viable"},
		shape:   evictionShape,
		fill: rows(func(o Options) []pair[core.EvictionPolicy, int] {
			return grid([]core.EvictionPolicy{core.EvictInactiveFirst, core.EvictFIFO},
				quickOr(o, []int{4, 8, 16, 64}, []int{4, 64}))
		}, func(o Options, p pair[core.EvictionPolicy, int]) []string {
			name := "inactive-first"
			if p.a == core.EvictFIFO {
				name = "fifo (ablation)"
			}
			jcfg := jugglerAt(units.Rate10G, 700*time.Microsecond)
			jcfg.MaxFlows = p.b
			jcfg.Eviction = p.a
			res := runManyFlows(o, jcfg, 32, 500*time.Microsecond)
			return []string{name, fI(int64(p.b)), fGbps(res.tput), fF(res.oooFrac),
				fI(res.ofoTO), fI(res.evictions)}
		}),
	})
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
