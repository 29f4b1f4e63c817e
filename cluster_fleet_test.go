package juggler

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"juggler/internal/golden"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
)

// runClusterWithExports builds a per-packet-sprayed cluster with fleet
// telemetry and every exporter on, runs it, and returns the bytes of
// each export. The cluster's closed loop is inherently serial, so
// "determinism coverage" here means two fresh same-seed runs — the
// property every -j sweep worker relies on when it commits results by
// point index.
func runClusterWithExports(t *testing.T) (trace, pcap, metrics, fleetJSON []byte) {
	t.Helper()
	c := NewCluster(ClusterConfig{
		LB: PerPacket, Stack: StackJuggler, Seed: 11,
		Telemetry: true,
		Fleet:     &fleet.Config{Cadence: 500 * time.Microsecond, SLO: time.Millisecond},
	})
	a, b := c.AddHost(0), c.AddHost(1)
	d := c.AddHost(1)
	c.ConnectBulk(a, b, FlowOptions{})
	rpc := c.ConnectRPC(a, d, FlowOptions{})
	c.At(time.Millisecond, func() { rpc.Send(64 << 10) })
	c.At(2*time.Millisecond, func() { rpc.Send(64 << 10) })
	c.Run(8 * time.Millisecond)

	var tb, pb, mb, fb bytes.Buffer
	if err := c.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := c.WritePcap(&pb); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFleetReport(&fb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), mb.Bytes(), fb.Bytes()
}

// TestClusterExportsDeterministic is the exporter determinism gate:
// same seed, fresh sims, byte-identical WriteTrace / WritePcap /
// WriteMetrics / fleet report output.
func TestClusterExportsDeterministic(t *testing.T) {
	t1, p1, m1, f1 := runClusterWithExports(t)
	t2, p2, m2, f2 := runClusterWithExports(t)
	for _, cmp := range []struct {
		name string
		a, b []byte
	}{
		{"trace", t1, t2}, {"pcap", p1, p2}, {"metrics", m1, m2}, {"fleet", f1, f2},
	} {
		if len(cmp.a) == 0 {
			t.Fatalf("%s export is empty", cmp.name)
		}
		if !bytes.Equal(cmp.a, cmp.b) {
			t.Fatalf("%s export differs between same-seed runs", cmp.name)
		}
	}
}

// TestClusterFleetReport checks the cluster wiring end to end: probes
// sampled on the cadence, deliveries observed, RPC completions in the
// FCT sketch, JSON that passes the strict round trip and matches
// testdata/cluster_fleet_golden.json.
func TestClusterFleetReport(t *testing.T) {
	_, _, _, fj := runClusterWithExports(t)
	if err := telemetry.CheckJSON(fj, (*fleet.Report).WriteJSON); err != nil {
		t.Fatal(err)
	}
	golden.JSON(t, filepath.Join("testdata", "cluster_fleet_golden.json"), golden.Fingerprint(fj))

	c := NewCluster(ClusterConfig{
		LB: PerPacket, Stack: StackJuggler, Seed: 11,
		Fleet: &fleet.Config{},
	})
	a, b := c.AddHost(0), c.AddHost(1)
	c.ConnectBulk(a, b, FlowOptions{})
	rpc := c.ConnectRPC(a, b, FlowOptions{})
	c.At(time.Millisecond, func() { rpc.Send(32 << 10) })
	c.Run(6 * time.Millisecond)
	r := c.FleetReport()
	if r == nil {
		t.Fatal("FleetReport returned nil with Fleet configured")
	}
	if len(r.Hosts) != 2 {
		t.Fatalf("want 2 host rows, got %d", len(r.Hosts))
	}
	var recv *fleet.HostHealth
	for i := range r.Hosts {
		if r.Hosts[i].Name == "h1-1" {
			recv = &r.Hosts[i]
		}
	}
	if recv == nil {
		t.Fatal("receiver host missing from report")
	}
	if recv.Deliveries == 0 || recv.Samples == 0 {
		t.Fatalf("receiver saw no deliveries/samples: %+v", recv)
	}
	if recv.SojournP99Ns <= 0 || recv.SojournP99Ns < recv.SojournP50Ns {
		t.Fatalf("tail quantiles inconsistent: p50 %d p99 %d", recv.SojournP50Ns, recv.SojournP99Ns)
	}
	if r.FCTCount == 0 {
		t.Fatal("RPC completion did not reach the FCT sketch")
	}
	if r.Fleet.Samples == 0 || r.Fleet.PktsPerSec == 0 {
		t.Fatalf("fleet rollup empty: %+v", r.Fleet)
	}
	if len(r.TopFlowsByBytes) == 0 {
		t.Fatal("no flow heavy hitters in cluster report")
	}

	// No fleet config -> no report, and exporters stay nil-safe.
	c2 := NewCluster(ClusterConfig{Seed: 3})
	if c2.FleetReport() != nil {
		t.Fatal("FleetReport should be nil without ClusterConfig.Fleet")
	}
	var sink bytes.Buffer
	if err := c2.WriteFleetReport(&sink); err != nil || sink.Len() != 0 {
		t.Fatal("WriteFleetReport should be a no-op without ClusterConfig.Fleet")
	}
}
