package experiments

import (
	"time"

	"juggler/internal/chaos"
	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/tcp"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// fleetScenario is one of the fleet experiment's two parameter points:
// the same Clos cluster, once clean and once with one receiver's ingress
// run through a chaos reorderer + loss pair.
type fleetScenario struct {
	name     string
	impaired bool
}

func init() {
	// The cluster topology under chaos impairments, as the ranked
	// host-health table the fleet aggregator produces — the end-to-end
	// demo of "merge, don't sample-and-ship": every number in the table is
	// a structural merge of per-lane sketches and counters, so it is
	// identical however the run was scheduled.
	register("fleet", entry{
		desc:    "cluster-wide fleet health report under chaos impairments",
		title:   "Fleet health report: clean cluster vs one impaired host",
		columns: []string{"scenario", "health", "fleet_p99_us", "worst_host", "worst_p99_us", "fct_p99_us", "burn_windows", "stragglers"},
		notes: []string{"rows are fleet-level merges of per-host sojourn sketches; the impaired host's ingress adds up to 250us of random extra delay plus 0.1% loss",
			"run juggler-doctor -fleet for the full ranked host table behind the impaired row"},
		shape: fleetShape,
		fill: rows(fixed(fleetScenario{"clean", false}, fleetScenario{"impaired", true}), func(o Options, sc fleetScenario) []string {
			r := CollectFleetReport(o, sc.impaired)
			worst := r.Hosts[0]
			return []string{sc.name, r.FleetHealth, fI(r.Fleet.SojournP99Ns / 1000), worst.Name,
				fI(worst.SojournP99Ns / 1000), fI(r.FCTP99Ns / 1000),
				fI(r.Fleet.SLOBurnWindows), fI(int64(len(r.Stragglers)))}
		}),
	})
}

// CollectFleetReport builds the fleet-experiment cluster — three sender
// hosts under ToR 0, three receivers under ToR 1, per-packet spraying,
// bulk + Poisson RPC traffic — attaches a fleet probe to every host,
// runs it, and returns the merged health report. When impaired, the
// first receiver's ingress is wrapped in a chaos reorderer (30% of
// packets delayed up to 250us) feeding a 0.1% uniform loss stage, so
// that host should surface as the worst-ranked row and, with enough
// divergence, a straggler. Exported for juggler-doctor -fleet.
func CollectFleetReport(o Options, impaired bool) *fleet.Report {
	s := o.newSim()
	tb := newClos(s, 2*units.MB, lb.PolicyPerPacket)

	hostCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	o.tune(&hostCfg.Juggler)
	hostCfg.Adapt = o.Adapt

	agg := fleet.NewAggregator(fleet.Config{
		Cadence: 250 * time.Microsecond,
		SLO:     250 * time.Microsecond,
	})

	const pairs = 3
	senders := make([]*testbed.Host, pairs)
	for i := range senders {
		senders[i] = tb.AddHost(0, hostCfg)
		senders[i].AttachFleetProbe(agg, 0)
	}
	receivers := make([]*testbed.Host, pairs)
	for i := range receivers {
		var wrap func(fabric.Sink) fabric.Sink
		if impaired && i == 0 {
			wrap = func(rx fabric.Sink) fabric.Sink {
				loss := chaos.NewLoss(s, 0.001, rx)
				return chaos.NewReorderer(s, 0.3, 250*time.Microsecond, loss)
			}
		}
		receivers[i] = tb.AddHostVia(1, hostCfg, wrap)
		receivers[i].AttachFleetProbe(agg, 1)
	}

	// Traffic: one endless bulk flow per pair for delivery volume, plus
	// Poisson 4KB RPCs multiplexed over one persistent connection per
	// pair feeding the fleet FCT sketch. The bulk cwnd is capped well
	// below the 2MB fabric queues so the clean baseline's sojourn tail
	// reflects the stack, not self-inflicted standing queues — the
	// impairment has to be what degrades a host.
	scfg := tcp.SenderConfig{MaxCwnd: 256 * units.KB}
	var streams []*workload.RPCStream
	for i := 0; i < pairs; i++ {
		snd, _ := testbed.Connect(senders[i], receivers[i], scfg)
		snd.SetInfinite()
		snd.MaybeSend()
		rsnd, rrcv := testbed.Connect(senders[i], receivers[i], scfg)
		st := workload.NewRPCStream(s, rsnd, rrcv, nil)
		st.OnLatency = func(d time.Duration) { agg.ObserveFCT(int64(d)) }
		streams = append(streams, st)
	}
	gen := workload.NewPoissonRPCGen(s, streams, 4096, 20_000)
	gen.MaxOutstanding = 8
	gen.Start()

	s.RunFor(o.scale(20 * time.Millisecond))
	gen.Stop()
	agg.StopAll()
	return agg.Report(time.Duration(s.Now()))
}
