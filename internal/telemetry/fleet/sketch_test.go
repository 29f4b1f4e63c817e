package fleet_test

import (
	"math/rand"
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/telemetry/fleet"
)

// TestSketchMergeEquivalence: the report's lane -> host -> ToR -> fleet
// sketch merges must be indistinguishable from one sketch that observed
// each level's whole sojourn stream — quantiles, max and sample count
// alike — however the samples were spread across lanes and hosts.
func TestSketchMergeEquivalence(t *testing.T) {
	const (
		hosts = 4
		tors  = 2
		lanes = 8
	)
	rng := rand.New(rand.NewSource(7))
	agg := fleet.NewAggregator(fleet.Config{})
	var probes []*fleet.HostProbe
	hostWhole := make([]stats.QuantileSketch, hosts)
	torWhole := make([]stats.QuantileSketch, tors)
	var fleetWhole stats.QuantileSketch
	for h := 0; h < hosts; h++ {
		probes = append(probes, agg.AddHost(string(rune('a'+h)), h%tors, lanes))
	}

	const sent = sim.Time(1000)
	for i := 0; i < 4096; i++ {
		h := rng.Intn(hosts)
		d := rng.Int63n(1 << 40)
		seg := packet.Segment{Bytes: 1}
		packet.Stamp(&seg.Stamps, packet.HopTCPSend, sent)
		packet.Stamp(&seg.Stamps, packet.HopDeliver, sent+sim.Time(d))
		probes[h].Lane(i % lanes).ObserveDelivery(&seg)
		hostWhole[h].Observe(d)
		torWhole[h%tors].Observe(d)
		fleetWhole.Observe(d)
	}
	agg.StopAll()
	r := agg.Report(time.Second)

	type view struct{ p50, p99, p999, max, n int64 }
	of := func(q *stats.QuantileSketch) view {
		return view{q.P50(), q.P99(), q.P999(), q.Max(), q.Count()}
	}
	for _, hh := range r.Hosts {
		got := view{hh.SojournP50Ns, hh.SojournP99Ns, hh.SojournP999Ns, hh.SojournMaxNs, hh.Samples}
		if want := of(&hostWhole[hh.Name[0]-'a']); got != want {
			t.Fatalf("host %s: lane merge %+v, whole stream %+v", hh.Name, got, want)
		}
	}
	if len(r.ToRs) != tors {
		t.Fatalf("%d ToR rollups, want %d", len(r.ToRs), tors)
	}
	for _, tr := range r.ToRs {
		got := view{tr.SojournP50Ns, tr.SojournP99Ns, tr.SojournP999Ns, tr.SojournMaxNs, tr.Samples}
		if want := of(&torWhole[tr.ToR]); got != want {
			t.Fatalf("ToR %d: host merge %+v, whole stream %+v", tr.ToR, got, want)
		}
	}
	f := r.Fleet
	got := view{f.SojournP50Ns, f.SojournP99Ns, f.SojournP999Ns, f.SojournMaxNs, f.Samples}
	if want := of(&fleetWhole); got != want {
		t.Fatalf("fleet: host merge %+v, whole stream %+v", got, want)
	}
}
