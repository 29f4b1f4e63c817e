package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"juggler/internal/units"
)

// The paper's claims, one Shape per registered experiment. Each claim's
// Source names the section its band comes from (or, for an experiment that
// is not a paper figure, the component whose behaviour it checks); where
// the paper gives
// arithmetic (line rate, the 64 KB batch time, τ − τ0, the fair share) the
// band is computed from it, not read off today's tables. A claim that the
// model fails on a seed is listed in Known with the deviation it names, and
// is not widened until it passes.

var (
	// lineRate10G is TCP goodput on a saturated 10G link, in Gb/s: an MSS
	// of payload per MTU plus Ethernet framing.
	lineRate10G = float64(units.Rate10G) / 1e9 * units.MSS / (units.MTU + units.WireOverhead)
	// tau0 is the interrupt-coalescing bound τ0 of the fig13/14 NIC.
	tau0 = coalesceTimeBound().CoalesceDelay
	// batchTimeUs is the 10G batch time in µs: the knee of Fig. 12 (§5.2.1).
	batchTimeUs = float64(batchTime(units.Rate10G).Microseconds())
	inf         = math.Inf(1)
)

// A claim's vocabulary: a cell reference, and two bands on it. A band
// [lo, hi] is closed; under(x) is the top of a band that excludes x.

// cell references column col of the first row whose leading cells are
// prefix.
type cell struct {
	col    string
	prefix []string
}

func ref(col string, prefix ...string) cell { return cell{col, prefix} }

func (c cell) String() string { return fmt.Sprintf("%s of %v", c.col, c.prefix) }

// under returns the largest float64 below x.
func under(x float64) float64 { return math.Nextafter(x, -inf) }

// reader reads a claim's numbers from a table and keeps the first lookup
// error, so a claim reads every cell it needs and checks once.
type reader struct {
	t   *Table
	err error
}

// values reads column col of the rows whose leading cells are prefix
// (Table.Values); nil after an error.
func (r *reader) values(col string, prefix ...string) []float64 {
	if r.err != nil {
		return nil
	}
	v, err := r.t.Values(col, prefix...)
	r.err = err
	return v
}

// at reads the number c references; NaN after an error.
func (r *reader) at(c cell) float64 {
	if v := r.values(c.col, c.prefix...); v != nil {
		return v[0]
	}
	return math.NaN()
}

// within checks that the number at c lies in [lo, hi].
func within(c cell, lo, hi float64) func(*Table) error {
	return func(t *Table) error {
		r := reader{t: t}
		if v := r.at(c); r.err == nil && (v < lo || v > hi) {
			return fmt.Errorf("%v is %g; want [%g, %g]", c, v, lo, hi)
		}
		return r.err
	}
}

// ratio checks that num / den lies in [lo, hi].
func ratio(num, den cell, lo, hi float64) func(*Table) error {
	return func(t *Table) error {
		r := reader{t: t}
		n, d := r.at(num), r.at(den)
		if x := n / d; r.err == nil && (x < lo || x > hi) {
			return fmt.Errorf("%v / %v is %g / %g = %.3g; want [%g, %g]", num, den, n, d, x, lo, hi)
		}
		return r.err
	}
}

// all checks each of checks in turn and returns the first failure.
func all(checks ...func(*Table) error) func(*Table) error {
	return func(t *Table) error {
		for _, c := range checks {
			if err := c(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// fig1Shape (§2.1): the target flow gets a 20G guarantee at t = 0. From
// t = 30 ms the Juggler kernel holds it within 5 %; the vanilla kernel
// averages at most 0.8 × the guarantee.
var fig1Shape = Shape{
	fig1Claim("juggler-holds-guarantee", "juggler", 19, 21),
	fig1Claim("vanilla-below-guarantee", "vanilla", 0, 16),
}

func fig1Claim(name, kernel string, lo, hi float64) Claim {
	return Claim{Name: name, Source: "§2.1, Fig. 1", Check: func(t *Table) error {
		r := reader{t: t}
		ms, gbps := r.values("time_ms", kernel), r.values("target_flow_Gbps", kernel)
		if r.err != nil {
			return r.err
		}
		var sum float64
		var n int
		for i, m := range ms {
			if m >= 30 {
				sum += gbps[i]
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("%w: no %s row from 30 ms", errLookup, kernel)
		}
		if mean := sum / float64(n); mean < lo || mean > hi {
			return fmt.Errorf("%s averages %.2fG from 30 ms; want %.0f–%.0fG", kernel, mean, lo, hi)
		}
		return nil
	}}
}

// fig6Shape (§4, Fig. 6): with no reordering, event-driven flushes are most
// of the flushes; ofo_timeout flushes grow with τ.
var fig6Shape = Shape{
	{Name: "event-flushes-dominate", Source: "§4, Fig. 6", Check: func(t *Table) error {
		r := reader{t: t}
		ev, in, ofo := r.at(ref("flush_event", "0")), r.at(ref("flush_inseq", "0")), r.at(ref("flush_ofo", "0"))
		if r.err == nil && 2*ev <= ev+in+ofo {
			return fmt.Errorf("τ = 0: %.0f event flushes of %.0f; want a majority", ev, ev+in+ofo)
		}
		return r.err
	}},
	{Name: "ofo-flushes-grow-with-tau", Source: "§4, Fig. 6", Check: func(t *Table) error {
		ofo, err := t.Values("flush_ofo")
		if err != nil {
			return err
		}
		for i := 1; i < len(ofo); i++ {
			if ofo[i] <= ofo[i-1] {
				return fmt.Errorf("ofo_timeout flushes %v do not grow with τ", ofo)
			}
		}
		return nil
	}},
}

// cpuShape (§5.1.1, Figs. 9 and 10): Juggler under reordering holds the
// 20G target, and costs at most ~10 % more app core than vanilla in order
// (the paper: no overhead). Vanilla under reordering loses ~35 % of the
// target: it keeps 65 ± 10 %, one claim per edge of the band, so that the
// edge it meets stays checked.
var cpuShape = Shape{
	{Name: "juggler-holds-target", Source: "§5.1.1", Check: within(ref("tput_%target", "juggler/reorder (per-packet)"), 95, inf)},
	{Name: "no-in-order-overhead", Source: "§5.1.1", Check: ratio(ref("app_core%", "juggler/no-reorder (ECMP)"), ref("app_core%", "vanilla/no-reorder (ECMP)"), -inf, 1.1)},
	{Name: "vanilla-loses-throughput", Source: "§5.1.1", Check: within(ref("tput_%target", "vanilla/reorder (per-packet)"), -inf, 75)},
	{Name: "vanilla-keeps-two-thirds", Source: "§5.1.1", Known: map[int64]int{1: 2, 2: 2}, Check: within(ref("tput_%target", "vanilla/reorder (per-packet)"), 55, inf)},
}

// latencyShape (§5.1.2): Juggler adds no latency to in-order RPCs.
var latencyShape = Shape{
	{Name: "equal-medians", Source: "§5.1.2", Check: ratio(ref("median_us", "juggler"), ref("median_us", "vanilla"), 1, 1)},
}

// fig12Shape (§5.2.1, Fig. 12): batching rises from ~25 MTUs at timeout 0
// to the maximum (~45) once inseq_timeout covers the 64 KB batch time: at
// every τ, at least 1.5× the timeout-0 batching there, and within 15 % of
// the grid's largest timeout. The curves do not depend on τ (within 5 %).
var fig12Shape = Shape{
	{Name: "knee-at-batch-time", Source: "§5.2.1, Fig. 12", Check: func(t *Table) error {
		for _, tau := range []string{"250", "500", "750"} {
			r := reader{t: t}
			inseq, mtus := r.values("inseq_timeout_us", tau), r.values("batching_MTUs", tau)
			if r.err != nil {
				return r.err
			}
			i := slices.Index(inseq, batchTimeUs)
			if i < 0 {
				return fmt.Errorf("%w: τ = %sµs: no inseq_timeout at the %.0fµs batch time", errLookup, tau, batchTimeUs)
			}
			if last := mtus[len(mtus)-1]; mtus[i] < 0.85*last || mtus[i] < 1.5*mtus[0] {
				return fmt.Errorf("τ = %sµs: %.2f MTUs at %.0fµs, %.2f at %.0fµs, %.2f at %.0fµs; want ≥ 0.85× the last, ≥ 1.5× the first",
					tau, mtus[0], inseq[0], mtus[i], batchTimeUs, last, inseq[len(inseq)-1])
			}
		}
		return nil
	}},
	{Name: "independent-of-tau", Source: "§5.2.1, Fig. 12", Check: func(t *Table) error {
		r := reader{t: t}
		curves := [][]float64{r.values("batching_MTUs", "250"), r.values("batching_MTUs", "500"), r.values("batching_MTUs", "750")}
		if r.err != nil {
			return r.err
		}
		for i := range curves[0] {
			lo, hi := curves[0][i], curves[0][i]
			for _, c := range curves[1:] {
				lo, hi = min(lo, c[i]), max(hi, c[i])
			}
			if hi > 1.05*lo {
				return fmt.Errorf("grid point %d: batching spans %.2f–%.2f MTUs across τ; want within 5%%", i, lo, hi)
			}
		}
		return nil
	}},
}

// fig13Shape (§5.2.1, Fig. 13): throughput reaches line rate (within 10 %)
// at the first grid ofo_timeout ≥ τ − τ0.
var fig13Shape = Shape{
	fig13Claim(250, nil),
	fig13Claim(500, map[int64]int{1: 3, 2: 3}),
	fig13Claim(750, map[int64]int{1: 3}),
}

func fig13Claim(tauUs int, known map[int64]int) Claim {
	return Claim{Name: fmt.Sprintf("line-rate-tau%d", tauUs), Source: "§5.2.1, Fig. 13", Known: known,
		Check: func(t *Table) error {
			r := reader{t: t}
			ofo, gbps := r.values("ofo_timeout_us", fmt.Sprint(tauUs)), r.values("tput_Gbps", fmt.Sprint(tauUs))
			if r.err != nil {
				return r.err
			}
			edge := float64((time.Duration(tauUs)*time.Microsecond - tau0).Microseconds())
			i := slices.IndexFunc(ofo, func(v float64) bool { return v >= edge })
			if i < 0 {
				return fmt.Errorf("%w: no ofo_timeout ≥ τ − τ0 = %.0fµs on the grid", errLookup, edge)
			}
			if gbps[i] < 0.9*lineRate10G {
				return fmt.Errorf("%.2fG at ofo_timeout %.0fµs, the first ≥ τ − τ0 = %.0fµs; want ≥ %.2fG",
					gbps[i], ofo[i], edge, 0.9*lineRate10G)
			}
			return nil
		}}
}

// fig14Shape (§5.2.1, Fig. 14): RPC p99 is flat (within 10 %) while
// ofo_timeout < τ − τ0, and steps up (> 1.3×) at the first grid
// ofo_timeout past it, where loss recovery starts to wait out the timeout.
var fig14Shape = Shape{
	fig14Claim(250, map[int64]int{1: 3, 2: 3}),
	fig14Claim(500, nil),
	fig14Claim(750, map[int64]int{1: 3}),
}

func fig14Claim(tauUs int, known map[int64]int) Claim {
	return Claim{Name: fmt.Sprintf("step-tau%d", tauUs), Source: "§5.2.1, Fig. 14", Known: known,
		Check: func(t *Table) error {
			r := reader{t: t}
			ofo, p99 := r.values("ofo_timeout_us", fmt.Sprint(tauUs)), r.values("p99_ms", fmt.Sprint(tauUs))
			if r.err != nil {
				return r.err
			}
			edge := float64((time.Duration(tauUs)*time.Microsecond - tau0).Microseconds())
			i := slices.IndexFunc(ofo, func(v float64) bool { return v > edge })
			if i <= 0 {
				return fmt.Errorf("%w: the ofo_timeout grid does not straddle τ − τ0 = %.0fµs", errLookup, edge)
			}
			lo, hi := slices.Min(p99[:i]), slices.Max(p99[:i])
			if hi > 1.1*lo {
				return fmt.Errorf("p99 spans %.3f–%.3fms below τ − τ0 = %.0fµs; want flat within 10%%", lo, hi, edge)
			}
			if p99[i] <= 1.3*hi {
				return fmt.Errorf("p99 %.3fms at ofo_timeout %.0fµs after ≤ %.3fms below τ − τ0 = %.0fµs; want a > 1.3× step",
					p99[i], ofo[i], hi, edge)
			}
			return nil
		}}
}

// fig15Shape (§5.2.2, Fig. 15): the active-list p99 stays under ~35, grows
// with τ and with concurrency up to 256 flows, then drops (low-rate flows
// send single-MTU bursts).
var fig15Shape = Shape{
	{Name: "bounded", Source: "§5.2.2, Fig. 15", Check: func(t *Table) error {
		p99, err := t.Values("active_p99")
		if err == nil && slices.Max(p99) >= 35 {
			err = fmt.Errorf("active p99 reaches %.0f; want < 35", slices.Max(p99))
		}
		return err
	}},
	{Name: "grows-with-tau", Source: "§5.2.2, Fig. 15", Check: func(t *Table) error {
		r := reader{t: t}
		lo, hi := r.values("active_p99", "250"), r.values("active_p99", "500")
		if r.err != nil {
			return r.err
		}
		for i := range lo {
			if hi[i] <= lo[i] {
				return fmt.Errorf("active p99 %v at τ = 500µs, %v at 250µs; want larger at every flow count", hi, lo)
			}
		}
		return nil
	}},
	fig15Claim("grows-to-256-flows", nil, 64, 256),
	fig15Claim("declines-past-256-flows", map[int64]int{1: 5, 2: 5}, 1024, 256),
}

// fig15Claim checks that, at every τ, the active p99 with lowAt flows is
// below the one with highAt flows.
func fig15Claim(name string, known map[int64]int, lowAt, highAt float64) Claim {
	return Claim{Name: name, Source: "§5.2.2, Fig. 15", Known: known, Check: func(t *Table) error {
		for _, tau := range []string{"250", "500"} {
			r := reader{t: t}
			flows, p99 := r.values("flows", tau), r.values("active_p99", tau)
			if r.err != nil {
				return r.err
			}
			i, j := slices.Index(flows, lowAt), slices.Index(flows, highAt)
			if i < 0 || j < 0 {
				return fmt.Errorf("%w: τ = %sµs: no %.0f- and %.0f-flow rows", errLookup, tau, lowAt, highAt)
			}
			if p99[i] >= p99[j] {
				return fmt.Errorf("τ = %sµs: active p99 %.0f at %.0f flows, %.0f at %.0f; want it lower at %.0f",
					tau, p99[i], lowAt, p99[j], highAt, lowAt)
			}
		}
		return nil
	}}
}

// fig16Shape (§5.2.2, Fig. 16): under realistic Clos reordering the active
// list averages under one flow, with p99 under 5.
var fig16Shape = Shape{
	{Name: "short-active-list", Source: "§5.2.2, Fig. 16", Check: func(t *Table) error {
		r := reader{t: t}
		mean, p99 := r.values("active_mean"), r.values("active_p99")
		if r.err != nil {
			return r.err
		}
		if slices.Max(mean) >= 1 || slices.Max(p99) >= 5 {
			return fmt.Errorf("active mean %v, p99 %v; want < 1 and < 5", mean, p99)
		}
		return nil
	}},
}

// fig18Shape (§5.3.1, Fig. 18): Juggler holds a 20G guarantee within 5 %
// and never falls below the fair share of 8 flows on 40G; vanilla gets at
// most 0.6 × a 20G guarantee.
var fig18Shape = Shape{
	{Name: "juggler-tracks-guarantee", Source: "§5.3.1, Fig. 18", Check: within(ref("juggler_Gbps", "20.00"), 19, 21)},
	{Name: "fair-share-floor", Source: "§5.3.1, Fig. 18", Check: within(ref("juggler_Gbps", "5.00"), float64(units.Rate40G)/1e9/8, inf)},
	{Name: "vanilla-far-below", Source: "§5.3.1, Fig. 18", Check: within(ref("vanilla_Gbps", "20.00"), -inf, 12)},
}

// fig20Shape (§5.3.2, Fig. 20): per-packet spraying at least halves ECMP's
// small-RPC p99 from 50 % load, and beats per-TSO at 90 %; at 90 % its
// large-RPC p99 is no worse than ECMP's.
var fig20Shape = Shape{
	{Name: "per-packet-halves-ecmp", Source: "§5.3.2, Fig. 20", Check: all(
		ratio(ref("small_p99_us", "50", "perpacket"), ref("small_p99_us", "50", "ecmp"), -inf, 0.5),
		ratio(ref("small_p99_us", "90", "perpacket"), ref("small_p99_us", "90", "ecmp"), -inf, 0.5))},
	{Name: "per-packet-beats-per-tso", Source: "§5.3.2, Fig. 20", Check: ratio(ref("small_p99_us", "90", "perpacket"), ref("small_p99_us", "90", "pertso"), -inf, under(1))},
	{Name: "per-packet-large-tail", Source: "§5.3.2, Fig. 20", Check: ratio(ref("large_p99_ms", "90", "perpacket"), ref("large_p99_ms", "90", "ecmp"), -inf, 1)},
}

// lossOfoShape (§5.2.1): at 0.1 % loss, throughput is not lost while
// ofo_timeout is well under ~100 ms: 5 ms keeps 90 % of 0.5 ms.
var lossOfoShape = Shape{
	{Name: "flat-to-5ms", Source: "§5.2.1", Known: map[int64]int{1: 2, 2: 2}, Check: ratio(ref("tput_Gbps", "5.000"), ref("tput_Gbps", "0.500"), 0.9, inf)},
}

// worstCaseShape (§3.3): holding every packet of an all-new-flow flood for
// 1 ms needs the paper's bound of tracked flows (within 10 %).
var worstCaseShape = Shape{
	{Name: "paper-bound", Source: "§3.3", Check: ratio(ref("active_p99", "1000"), ref("paper_bound_flows", "1000"), 0.9, 1.1)},
}

// chaosShape (the invariant checker, not the paper): every Juggler scenario
// is violation-free, and vanilla GRO under reordering trips the order
// invariant, so the checker has teeth.
var chaosShape = Shape{
	{Name: "juggler-clean", Source: "invariant checker", Check: func(t *Table) error {
		for _, sc := range ChaosScenarios() {
			if err := within(ref("violations", sc, "juggler"), 0, 0)(t); err != nil {
				return err
			}
		}
		return nil
	}},
	{Name: "checker-has-teeth", Source: "invariant checker", Check: within(ref("violations", "reorder", "vanilla"), 1, inf)},
}

// conntrackShape (§3.1): a stateful tracker behind Juggler sees in-order
// traffic; behind vanilla GRO, reordering marks segments INVALID.
var conntrackShape = Shape{
	{Name: "juggler-clean", Source: "§3.1", Check: within(ref("invalid_frac", "juggler", "500"), -inf, 0.01)},
	{Name: "vanilla-invalid", Source: "§3.1", Check: within(ref("invalid_frac", "vanilla", "500"), 0.05, inf)},
}

// linkedListShape (§3.1): linked-list batching costs ~50 % more CPU than
// frags merging on in-order traffic (band 1.3–1.7×); Juggler costs what
// vanilla GRO does (within 5 %).
var linkedListShape = Shape{
	{Name: "linked-list-costs-half-more", Source: "§3.1", Check: within(ref("vs_vanilla", "linkedlist"), 1.3, 1.7)},
	{Name: "juggler-costs-vanilla", Source: "§3.1", Check: within(ref("vs_vanilla", "juggler"), -inf, 1.05)},
}

// evictionShape (§4.3): evicting inactive flows first does at least as
// well as FIFO on a starved table, and a 64-entry table suffices.
var evictionShape = Shape{
	{Name: "inactive-first-at-least-fifo", Source: "§4.3", Check: ratio(ref("tput_Gbps", "inactive-first", "4"), ref("tput_Gbps", "fifo (ablation)", "4"), 1, inf)},
	{Name: "64-entries-suffice", Source: "§4.3", Check: all(
		within(ref("ooo_frac", "inactive-first", "64"), 0, 0), within(ref("ooo_frac", "fifo (ablation)", "64"), 0, 0))},
}

// buildUpShape (Remark 1): learning seq_next during the build-up phase
// sends fewer segments up the stack, ~6 % fewer in the paper's basic
// experiment (read as 3–9 %, half the figure either side): learning on
// sends a share of learning off's segments per MB in [0.91, 0.97).
var buildUpShape = Shape{
	{Name: "learning-saves-segments", Source: "Remark 1", Check: ratio(ref("segments_per_MB", "on"), ref("segments_per_MB", "off (ablation)"), -inf, under(1))},
	{Name: "saves-about-6pct", Source: "Remark 1", Known: map[int64]int{2: 6}, Check: ratio(ref("segments_per_MB", "on"), ref("segments_per_MB", "off (ablation)"), 0.91, under(0.97))},
}

// rssShape (§5.2.2): Juggler runs per receive queue, so spreading the 32
// flows over more RSS queues divides the per-queue active list and the
// RX-core peak by the queue count (within 10 %, abl-worstcase's
// tolerance), keeps throughput within 2 % of one queue, and still hides
// all reordering from TCP.
var rssShape = Shape{
	rssClaim("active-list-divides", "active_p99_per_queue", true, 0.1),
	rssClaim("rx-core-divides", "rx_core_max%", true, 0.1),
	rssClaim("throughput-holds", "tput_Gbps", false, 0.02),
	{Name: "no-ooo", Source: "§5.2.2", Check: func(t *Table) error {
		ooo, err := t.Values("ooo_frac")
		if err == nil && slices.Max(ooo) != 0 {
			err = fmt.Errorf("OOO fractions %v; want 0 at every queue count", ooo)
		}
		return err
	}},
}

// rssClaim checks that column col, times the queue count when perQueue,
// stays within tol of its one-queue value at every queue count.
func rssClaim(name, col string, perQueue bool, tol float64) Claim {
	return Claim{Name: name, Source: "§5.2.2", Check: func(t *Table) error {
		r := reader{t: t}
		queues, v := r.values("rx_queues"), r.values(col)
		if r.err != nil {
			return r.err
		}
		scaled := func(i int) float64 {
			if perQueue {
				return v[i] * queues[i]
			}
			return v[i]
		}
		ref := scaled(0)
		for i := range v {
			if math.Abs(scaled(i)-ref) > tol*ref {
				what := col
				if perQueue {
					what += " × queues"
				}
				return fmt.Errorf("%s %v at %v queues; want %s within %.0f%% of %.2f", col, v, queues, what, tol*100, ref)
			}
		}
		return nil
	}}
}

// sctpShape (§4): the unchanged Juggler layer hides 500 µs of reordering
// from a message transport — no OOO records, no spurious retransmissions,
// at least 0.9 × its in-order batching — while vanilla GRO passes half the
// records up out of order (the delay switch delays each packet with
// probability ½) and its batching falls below a tenth of in-order.
var sctpShape = Shape{
	{Name: "juggler-hides-reordering", Source: "§4", Check: all(
		within(ref("ooo_frac", "juggler", "500"), 0, 0), within(ref("spurious_retrans", "juggler", "500"), 0, 0))},
	{Name: "juggler-keeps-batching", Source: "§4", Check: ratio(ref("batching_MTUs", "juggler", "500"), ref("batching_MTUs", "juggler", "0"), 0.9, inf)},
	{Name: "vanilla-half-ooo", Source: "§4", Check: within(ref("ooo_frac", "vanilla", "500"), 0.4, 0.6)},
	{Name: "vanilla-batching-collapses", Source: "§4", Check: ratio(ref("batching_MTUs", "vanilla", "500"), ref("batching_MTUs", "vanilla", "0"), -inf, 0.1)},
}

// shardedRXShape (§5.2.2): RSS spreads flows evenly over the receive
// queues. Each flow picks one of the queues independently, so a queue's
// share of the -quick run's flows, and of the bytes they deliver, is
// binomial: within 3σ = 3·√((queues − 1)/flows) of TOTAL/queues.
var shardedRXShape = Shape{
	{Name: "even-rss-spread", Source: "§5.2.2", Check: func(t *Table) error {
		r := reader{t: t}
		fair := r.at(ref("delivered_MB", "TOTAL")) / shardedRXQueues
		band := 3 * math.Sqrt((shardedRXQueues-1)/float64(shardedRXQuickFlows))
		for q := range shardedRXQueues {
			if v := r.at(ref("delivered_MB", fmt.Sprint(q))); r.err == nil && math.Abs(v-fair) > band*fair {
				return fmt.Errorf("queue %d delivers %.2f MB; want the %.2f MB fair share ± %.1f%%", q, v, fair, band*100)
			}
		}
		return r.err
	}},
}

// adaptiveShape (the adapt controller, not the paper): both stacks carry
// ≥ 5G before the skew shift. After it the static stack keeps at most half
// its goodput and its provisioned ofo_timeout, and never retunes. The
// adaptive stack recovers at least half, ≥ 3× the static stack's, with no
// phase flap once converged, by retuning ofo_timeout past the new skew
// bound and below the controller's 2 ms ceiling; it leaks fewer
// out-of-order segments to TCP.
var adaptiveShape = Shape{
	adaptiveClaim("measurable-before-shift", "pre_Gbps", func(st, ad float64) bool { return st >= 5 && ad >= 5 }, "both ≥ 5"),
	{Name: "static-degrades", Source: "adapt controller", Check: ratio(ref("conv_Gbps", "static"), ref("pre_Gbps", "static"), -inf, 0.5)},
	adaptiveClaim("adaptive-recovers", "recovery", func(_, ad float64) bool { return ad >= 50 }, "adaptive ≥ 50%"),
	adaptiveClaim("adaptive-beats-static", "conv_Gbps", func(st, ad float64) bool { return ad >= 3*st }, "adaptive ≥ 3× static"),
	adaptiveClaim("no-flaps-when-converged", "flaps_conv", func(_, ad float64) bool { return ad == 0 }, "adaptive 0"),
	adaptiveClaim("only-adaptive-retunes", "retunes", func(st, ad float64) bool { return st == 0 && ad > 0 }, "static 0, adaptive > 0"),
	adaptiveClaim("ofo-covers-new-skew", "final_ofo_us", func(st, ad float64) bool {
		return st == float64(adaptStaticOfo.Microseconds()) &&
			ad > float64(adaptTau2.Microseconds()) && ad < float64((2*time.Millisecond).Microseconds())
	}, fmt.Sprintf("static %d, adaptive in (%d, 2000)", adaptStaticOfo.Microseconds(), adaptTau2.Microseconds())),
	adaptiveClaim("fewer-ooo-segments", "ooo_segs", func(st, ad float64) bool { return ad < st }, "adaptive < static"),
}

// adaptiveClaim checks ok on column col of the static and adaptive rows;
// want describes ok in the failure message.
func adaptiveClaim(name, col string, ok func(static, adaptive float64) bool, want string) Claim {
	return Claim{Name: name, Source: "adapt controller", Check: func(t *Table) error {
		r := reader{t: t}
		if st, ad := r.at(ref(col, "static")), r.at(ref(col, "adaptive")); r.err == nil && !ok(st, ad) {
			return fmt.Errorf("%s: static %g, adaptive %g; want %s", col, st, ad, want)
		}
		return r.err
	}}
}

// fleetShape (the fleet watchdog, not the paper): the clean cluster is
// healthy and burns no SLO window (the bulk cwnd cap keeps the fabric
// queues from burning it, so only the impairment can degrade a host); with
// one impaired receiver the fleet is degraded, and its worst host's p99
// exceeds the clean run's.
var fleetShape = Shape{
	{Name: "clean-healthy", Source: "fleet watchdog", Check: func(t *Table) error {
		burn, err := fleetValue(t, "burn_windows", "clean", "healthy")
		if err == nil && burn != 0 {
			err = fmt.Errorf("the clean fleet burns %.0f SLO windows; want 0", burn)
		}
		return err
	}},
	{Name: "impaired-degraded", Source: "fleet watchdog", Check: func(t *Table) error {
		imp, err := fleetValue(t, "worst_p99_us", "impaired", "degraded")
		if err != nil {
			return err
		}
		return within(ref("worst_p99_us", "clean"), -inf, under(imp))(t)
	}},
}

// fleetValue reads column col of a scenario's row, and fails unless the
// row's health is health.
func fleetValue(t *Table, col, scenario, health string) (float64, error) {
	if _, err := t.Values(col, scenario); err != nil {
		return 0, err
	}
	v, err := t.Values(col, scenario, health)
	if err != nil {
		return 0, fmt.Errorf("the %s fleet is not %s", scenario, health)
	}
	return v[0], nil
}
