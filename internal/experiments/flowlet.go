package experiments

import (
	"juggler/internal/lb"
	"juggler/internal/sweep"
)

// extFlowlet is an extension beyond the paper's evaluation: CONGA-style
// flowlet switching (§2.2 discusses it as the hardware-assisted compromise
// that avoids reordering) added as a fourth policy to the Figure-20
// workload at a fixed 75% load. Flowlets avoid almost all reordering
// without end-host changes, but their balancing granularity sits between
// ECMP and per-TSO — per-packet spraying with a reordering-resilient
// stack still wins.
func extFlowlet(o Options) *Table {
	t := &Table{
		ID:    "ext-flowlet",
		Title: "Extension: flowlet switching vs the paper's three policies (75% load)",
		Columns: []string{"policy", "large_p99_ms", "large_p50_ms",
			"small_p99_us", "small_p50_us", "shed_pct", "max_uplink_q_KB"},
	}
	policies := []string{lb.PolicyECMP, lb.PolicyFlowlet, lb.PolicyPerTSO, lb.PolicyPerPacket}
	for _, row := range sweep.Map(o.Workers, len(policies), func(i int) []string {
		r := fig20Run(o.point(i, len(policies)), 75, policies[i])
		return []string{policies[i], fMs(r.largeP99), fMs(r.largeP50), fUs(r.smallP99), fUs(r.smallP50),
			fPct(r.shed), fI(int64(r.maxQ / 1024))}
	}) {
		t.Add(row...)
	}
	t.Note("flowlets need no reordering resilience but balance at burst granularity; per-packet + Juggler remains the finest-grained option")
	return t
}

func init() {
	register("ext-flowlet", entry{run: extFlowlet, desc: "flowlet LB extension at 75% load"})
}
