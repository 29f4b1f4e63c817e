package experiments

import (
	"sort"

	"juggler/internal/reasm"
	"juggler/internal/sweep"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// The bakeoff experiment runs every reassembly backend (internal/reasm)
// head-to-head through two workloads and ranks them:
//
//   - the full chaos catalog (internal/experiments/chaos.go): finite
//     transfers under reordering, corruption, stalls, loss, duplication and
//     link flaps, with the end-to-end invariant checker scoring each run;
//   - one flow-scale point (runFlowScalePoint): thousands of concurrent
//     reordering flows hammering insert/merge/drain churn.
//
// Every measurement in the table is seed-deterministic, so the ranking is
// byte-identical across runs and -j widths. The wall-clock side (ns/pkt
// per backend) is measured by BenchmarkReasmBackends in internal/reasm;
// it deliberately stays out of this table.

// bakeoffScore aggregates one backend's measurements across the grid.
type bakeoffScore struct {
	backend reasm.Kind

	violations int64 // invariant violations, all chaos scenarios + conservation
	delivered  int64 // cumulative in-order bytes at the chaos delivery point
	rejected   int64 // packets the backend refused to buffer (flushed unordered)
	peakBuf    int64 // max buffered bytes at any probe, worst scenario
	oooWork    int64 // packets needing out-of-order bookkeeping
	packets    int64 // wire packets examined (denominator for oooWork)
	fsBufKB    int64 // flow-scale peak buffered KB
}

// bakeoffOutcome is one grid point's contribution (a chaos scenario or the
// flow-scale point, for one backend).
type bakeoffOutcome struct {
	violations, delivered, rejected, peakBuf, oooWork, packets, fsBufKB int64
}

func bakeoff(o Options) *Table {
	t := &Table{
		ID:    "bakeoff",
		Title: "reassembly backend bake-off: chaos catalog + flow-scale, ranked",
		Columns: []string{"rank", "backend", "violations", "delivered_MB", "rejected",
			"peak_buffered_KB", "ooo_work_per_pkt", "flowscale_buf_KB"},
	}

	fsFlows, fsRounds := 2000, 16
	if o.Quick {
		fsFlows, fsRounds = 500, 8
	}

	// Flat grid: per backend, every chaos scenario plus one flow-scale
	// point. sweep.Map commits results by index, keeping the table
	// byte-identical at any -j width.
	kinds := reasm.Kinds()
	scenarios := ChaosScenarios()
	perBackend := len(scenarios) + 1
	n := len(kinds) * perBackend

	outcomes := sweep.Map(o.Workers, n, func(i int) bakeoffOutcome {
		po := o.point(i, n)
		po.Backend = kinds[i/perBackend]
		si := i % perBackend
		if si == len(scenarios) {
			res := runFlowScalePoint(po, fsFlows, fsRounds)
			out := bakeoffOutcome{
				rejected: res.Stats.ReasmRejected,
				oooWork:  res.Counters.OOOWork,
				packets:  res.Counters.Packets,
				fsBufKB:  int64(res.BufMax) / 1024,
			}
			if res.Delivered != res.Sent {
				out.violations = 1 // byte conservation broke at scale
			}
			return out
		}
		rep, err := RunChaosScenario(scenarios[si], testbed.OffloadJuggler, po, 1)
		if err != nil {
			panic(err) // catalog names come from the catalog itself
		}
		return bakeoffOutcome{
			violations: rep.Total,
			delivered:  rep.Delivered,
			rejected:   rep.ReasmRejected,
			peakBuf:    rep.PeakBuffered,
			oooWork:    rep.OOOWork,
		}
	})

	scores := make([]bakeoffScore, len(kinds))
	for i, out := range outcomes {
		sc := &scores[i/perBackend]
		sc.backend = kinds[i/perBackend]
		sc.violations += out.violations
		sc.delivered += out.delivered
		sc.rejected += out.rejected
		if out.peakBuf > sc.peakBuf {
			sc.peakBuf = out.peakBuf
		}
		sc.oooWork += out.oooWork
		sc.packets += out.packets
		if out.fsBufKB > sc.fsBufKB {
			sc.fsBufKB = out.fsBufKB
		}
	}

	// Rank: correctness first (fewest invariant violations), then most
	// bytes delivered in order, then least out-of-order bookkeeping, then
	// smallest memory footprint; catalog order breaks exact ties.
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := scores[order[a]], scores[order[b]]
		if x.violations != y.violations {
			return x.violations < y.violations
		}
		if x.delivered != y.delivered {
			return x.delivered > y.delivered
		}
		if x.oooWork != y.oooWork {
			return x.oooWork < y.oooWork
		}
		if x.peakBuf != y.peakBuf {
			return x.peakBuf < y.peakBuf
		}
		return order[a] < order[b]
	})

	for rank, oi := range order {
		sc := scores[oi]
		perPkt := 0.0
		if sc.packets > 0 {
			perPkt = float64(sc.oooWork) / float64(sc.packets)
		}
		t.Add(fI(int64(rank+1)), sc.backend.String(), fI(sc.violations),
			fF(float64(sc.delivered)/float64(units.MB)), fI(sc.rejected),
			fI(sc.peakBuf/1024), fF(perPkt), fI(sc.fsBufKB))
	}

	t.Note("grid: %d chaos scenarios + 1 flow-scale point (%d flows) per backend; all columns are seed-deterministic", len(scenarios), fsFlows)
	t.Note("seglist: general-purpose merge list, never rejects; batchsort: sort-on-insert records with delivery-time coalescing; bitmap: fixed %d-slot MSS window, rejects unaligned/out-of-window; ring: single contiguous run under a %dKB budget, rejects non-edge inserts", reasm.BitmapWindow, reasm.DefaultRingBytes/1024)
	t.Note("a rejected packet is flushed up the stack unbuffered (counted, never dropped), so conservation holds for every backend; rejects cost ordering, which the violations column prices in")
	t.Note("ooo_work_per_pkt uses the flow-scale denominator only (chaos packet counts are per-queue internal); wall-clock ns/pkt per backend is measured by BenchmarkReasmBackends (internal/reasm)")
	return t
}

func init() {
	register("bakeoff", "reassembly backend bake-off across chaos + flow-scale workloads", bakeoff)
}
