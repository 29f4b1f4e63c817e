package fleet_test

import (
	"bytes"
	"maps"
	"path/filepath"
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/golden"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// runShardedFleet drives a reordered multi-flow workload through a
// sharded host at the given lane count, with one fleet LaneProbe per RX
// queue (lane-local, cadence-ticked on the lane's own sim), and returns
// the rendered report bytes.
func runShardedFleet(t *testing.T, shards int) []byte {
	t.Helper()
	const (
		queues   = 4
		flows    = 64
		rounds   = 24
		interval = 20 * time.Microsecond
	)
	agg := fleet.NewAggregator(fleet.Config{
		Cadence: 100 * time.Microsecond,
		SLO:     60 * time.Microsecond,
	})
	hp := agg.AddHost("shost", 0, queues)

	cfg := testbed.ShardedHostConfig{
		RX: nic.ShardedRXConfig{
			Queues:    queues,
			Shards:    shards,
			PollEvery: 10 * time.Microsecond,
		},
		Offload: testbed.OffloadJuggler,
		Juggler: core.Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			MaxFlows:     flows,
		},
		DeliverTap: func(q int, seg *packet.Segment) {
			hp.Lane(q).ObserveDelivery(seg)
		},
	}
	h := testbed.NewShardedHost(1, cfg)
	for q := 0; q < queues; q++ {
		lane := hp.Lane(q)
		j := h.Jugglers[q]
		pool := q
		lane.SetSample(func(cn *fleet.Counters) {
			cn.BufferedBytes = int64(j.BufferedBytes())
			cn.TableFlows = int64(j.TableLen())
			cn.SegPoolLive = h.QueueSegPoolLive(pool)
			cn.Retransmissions = j.Stats.Retransmissions
			cn.OfoHolds = j.Stats.FlushOfoTimeout
		})
		lane.Start(h.RX.Queue(q).Shard().Sim())
	}

	flowOf := func(f int) packet.FiveTuple {
		return packet.FiveTuple{
			SrcIP: 1, DstIP: 9,
			SrcPort: uint16(f), DstPort: 5001, Proto: packet.ProtoTCP,
		}
	}
	send := func(f int, seq uint32, at sim.Time, last bool) {
		pkt := packet.Packet{
			Flow: flowOf(f),
			Seq:  1 + seq*units.MSS, PayloadLen: units.MSS,
			Flags: packet.FlagACK,
		}
		if last {
			pkt.Flags |= packet.FlagPSH
		}
		packet.Stamp(&pkt.Stamps, packet.HopTCPSend, at)
		h.RX.Inject(at, &pkt)
	}

	// Deterministic reordering: every third packet of every fourth flow
	// arrives two rounds late (injected in its arrival round, inside the
	// epoch horizon), and flow 7's round-5 packet never arrives (an
	// ofo-expiry hole). No RNG: the schedule itself is the seed.
	lateDue := make([]int, flows) // round+1 when a late packet is due
	lateSeq := make([]uint32, flows)
	for r := 0; r < rounds; r++ {
		at := sim.Time(0).Add(time.Duration(r) * interval)
		for f := 0; f < flows; f++ {
			if lateDue[f] == r+1 {
				lateDue[f] = 0
				send(f, lateSeq[f], at, false)
			}
			if f == 7 && r == 5 {
				continue
			}
			if f%4 == 0 && r%3 == 0 && r+2 < rounds {
				lateDue[f] = r + 2 + 1
				lateSeq[f] = uint32(r)
				continue
			}
			send(f, uint32(r), at, r == rounds-1)
		}
		h.RX.RunEpoch(at.Add(interval))
	}
	end := sim.Time(0).Add(rounds*interval + time.Millisecond)
	h.RX.RunEpochsUntil(end, interval)
	h.Finish()
	agg.StopAll()
	agg.ObserveFCT(123_456) // fleet-level sketch, lane-independent

	var buf bytes.Buffer
	if err := agg.Report(time.Duration(end)).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetReportShardInvariant: the fleet report must be byte-identical
// at any execution lane count — the merge order is structural (queue
// index), never the schedule. The one-lane report passes the strict
// round trip and matches testdata/sharded_report_golden.json.
func TestFleetReportShardInvariant(t *testing.T) {
	ref := runShardedFleet(t, 1)
	for _, shards := range []int{2, 4} {
		got := runShardedFleet(t, shards)
		if !bytes.Equal(ref, got) {
			t.Fatalf("report differs between 1 and %d lanes:\n%s\n---\n%s",
				shards, ref, got)
		}
	}
	// The run actually produced signal: sojourn samples and holds.
	if !bytes.Contains(ref, []byte(`"schema": "juggler-fleet-report/v1"`)) {
		t.Fatal("missing schema tag")
	}
	if err := telemetry.CheckJSON(ref, (*fleet.Report).WriteJSON); err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, filepath.Join("testdata", "sharded_report_golden.json"), golden.Fingerprint(ref))
}

// TestFleetReportContent sanity-checks the merged rollup on the serial
// reference run.
func TestFleetReportContent(t *testing.T) {
	data := runShardedFleet(t, 1)
	var probe struct {
		Hosts []struct {
			Name       string `json:"name"`
			Samples    int64  `json:"samples"`
			Deliveries int64  `json:"deliveries"`
			OfoHolds   int64  `json:"ofo_holds"`
		} `json:"hosts"`
		Fleet struct {
			Samples        int64 `json:"samples"`
			DeliveredBytes int64 `json:"delivered_bytes"`
		} `json:"fleet"`
		FCTCount int64 `json:"fct_count"`
		TopFlows []struct {
			Label string `json:"label"`
			Count int64  `json:"count"`
		} `json:"top_flows_by_bytes"`
	}
	if err := jsonUnmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Hosts) != 1 || probe.Hosts[0].Name != "shost" {
		t.Fatalf("hosts = %+v", probe.Hosts)
	}
	if probe.Hosts[0].Samples == 0 || probe.Hosts[0].Deliveries == 0 {
		t.Fatal("no sojourn samples or deliveries recorded")
	}
	if probe.Hosts[0].OfoHolds == 0 {
		t.Fatal("the dropped packet should have produced ofo-expiry holds")
	}
	if probe.Fleet.Samples != probe.Hosts[0].Samples {
		t.Fatal("fleet merge lost samples")
	}
	if probe.Fleet.DeliveredBytes == 0 || probe.FCTCount != 1 {
		t.Fatalf("delivered %d, fct %d", probe.Fleet.DeliveredBytes, probe.FCTCount)
	}
	if len(probe.TopFlows) == 0 {
		t.Fatal("no flow heavy hitters")
	}
}

// TestFleetSLOBurnBudget: a cadence window burns when more than 0.1% of
// its deliveries miss the SLO. One miss in 1000 is within budget; two
// are not.
func TestFleetSLOBurnBudget(t *testing.T) {
	agg := fleet.NewAggregator(fleet.Config{SLO: time.Millisecond})
	lane := agg.AddHost("h", 0, 1).Lane(0)
	deliver := func(n int, sojourn time.Duration) {
		for i := 0; i < n; i++ {
			seg := &packet.Segment{Bytes: units.MSS, Pkts: 1}
			packet.Stamp(&seg.Stamps, packet.HopTCPSend, 1)
			packet.Stamp(&seg.Stamps, packet.HopDeliver, sim.Time(1+sojourn))
			lane.ObserveDelivery(seg)
		}
	}
	deliver(999, time.Microsecond)
	deliver(1, 2*time.Millisecond)
	lane.SampleNow()
	deliver(998, time.Microsecond)
	deliver(2, 2*time.Millisecond)
	lane.SampleNow()
	h := agg.Report(time.Second).Hosts[0]
	if h.SLOWindows != 2 || h.SLOBurnWindows != 1 {
		t.Fatalf("windows %d, burned %d; want 2, 1", h.SLOWindows, h.SLOBurnWindows)
	}
}

// TestFleetStragglers: a host is a straggler when its p99 sojourn exceeds
// 150% of the fleet-merged p99 and it has at least 64 deliveries.
func TestFleetStragglers(t *testing.T) {
	agg := fleet.NewAggregator(fleet.Config{})
	for _, h := range []struct {
		name    string
		n       int
		sojourn time.Duration
	}{
		{"bulk", 100000, 10 * time.Microsecond}, // sets the fleet p99
		{"slow", 64, 20 * time.Microsecond},     // 200%
		{"mild", 64, 14 * time.Microsecond},     // 140% of the fleet p99
		{"sparse", 63, 20 * time.Microsecond},
	} {
		lane := agg.AddHost(h.name, 0, 1).Lane(0)
		for i := 0; i < h.n; i++ {
			seg := &packet.Segment{Bytes: units.MSS, Pkts: 1}
			packet.Stamp(&seg.Stamps, packet.HopTCPSend, 1)
			packet.Stamp(&seg.Stamps, packet.HopDeliver, sim.Time(1+h.sojourn))
			lane.ObserveDelivery(seg)
		}
	}
	got := map[string]bool{}
	for _, h := range agg.Report(time.Second).Hosts {
		got[h.Name] = h.Straggler
	}
	if want := map[string]bool{"bulk": false, "slow": true, "mild": false, "sparse": false}; !maps.Equal(got, want) {
		t.Fatalf("stragglers %v, want %v", got, want)
	}
}
