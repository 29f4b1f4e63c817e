package juggler

// The sharded receive datapath's determinism contract, checked end to
// end: shardedrx takes its lane count from the -j budget, and every
// budget must be byte-identical to -j 1 — for every seed, with and
// without the adaptive controller, for the rendered table AND the
// exported telemetry artifacts.

import (
	"bytes"
	"testing"

	"juggler/internal/experiments"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
)

// shardedTable renders one quick shardedrx run at the given -j budget.
func shardedTable(t *testing.T, seed int64, workers int, adapt bool) []byte {
	t.Helper()
	tbl := experiments.Run("shardedrx", experiments.Options{
		Seed: seed, Quick: true, Workers: workers, Adapt: adapt,
	})
	if tbl == nil {
		t.Fatal("experiment shardedrx not registered")
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.Bytes()
}

// TestShardedMatchesSerial sweeps two seeds over budgets -j 2/4/8, each
// of which runs that many lanes. The -j 1 run is the byte-exact serial
// reference; every other budget must reproduce it exactly. A second pass
// repeats the sweep with the per-queue adapt controllers attached (their
// retunes are part of the deterministic output).
func TestShardedMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, adapt := range []bool{false, true} {
			ref := shardedTable(t, seed, 1, adapt)
			if len(ref) == 0 {
				t.Fatalf("seed %d: empty serial table", seed)
			}
			for _, workers := range []int{2, 4, 8} {
				if got := shardedTable(t, seed, workers, adapt); !bytes.Equal(ref, got) {
					t.Errorf("seed %d adapt %v: table differs at -j %d:\n--- serial ---\n%s--- sharded ---\n%s",
						seed, adapt, workers, ref, got)
				}
			}
		}
	}
}

// TestShardedExportsMatchSerial compares the full telemetry artifact set
// — Perfetto trace, pcapng capture, Prometheus snapshot — between a
// one-lane and an eight-lane shardedrx run (-j 1 and -j 8). The sink attaches to the
// coordinator sim (lane sims are private to their goroutines), so the
// exports describe the run's coordinator-side view; what the test pins is
// that the lane count leaks into none of it.
func TestShardedExportsMatchSerial(t *testing.T) {
	run := func(workers int) (table, trace, pcap, prom []byte) {
		t.Helper()
		var sink *telemetry.Sink
		o := experiments.Options{Seed: 7, Quick: true, Workers: workers}
		o.AttachTelemetry = func(s *sim.Sim) {
			sink = telemetry.New(s, telemetry.Options{EventCap: 1 << 14})
		}
		tbl := experiments.Run("shardedrx", o)
		if tbl == nil {
			t.Fatal("experiment shardedrx not registered")
		}
		var tb bytes.Buffer
		tbl.Fprint(&tb)
		if sink == nil {
			t.Fatalf("no telemetry sink attached (-j %d)", workers)
		}
		var tr, pc, mb bytes.Buffer
		if err := sink.WriteTrace(&tr); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		if err := sink.WritePcap(&pc); err != nil {
			t.Fatalf("WritePcap: %v", err)
		}
		if err := sink.Metrics.WriteProm(&mb); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		return tb.Bytes(), tr.Bytes(), pc.Bytes(), mb.Bytes()
	}

	st, str, spc, spm := run(1)
	pt, ptr, ppc, ppm := run(8)
	if len(st) == 0 {
		t.Fatal("empty serial table")
	}
	if !bytes.Equal(st, pt) {
		t.Errorf("table differs between -j 1 and -j 8:\n--- serial ---\n%s--- sharded ---\n%s", st, pt)
	}
	if !bytes.Equal(str, ptr) {
		t.Errorf("trace-event JSON differs between -j 1 and -j 8 (%d vs %d bytes)", len(str), len(ptr))
	}
	if !bytes.Equal(spc, ppc) {
		t.Errorf("pcapng capture differs between -j 1 and -j 8 (%d vs %d bytes)", len(spc), len(ppc))
	}
	if !bytes.Equal(spm, ppm) {
		t.Errorf("metrics snapshot differs between -j 1 and -j 8 (%d vs %d bytes)", len(spm), len(ppm))
	}
}

// TestChaosRehashAdaptClean runs the chaos catalog's RSS-rehash scenario
// — the serial stack's mid-transfer indirection-table rewrite, the
// closest closed-loop cousin of the sharded handoff — with the adaptive
// controller attached, and requires a clean, complete report. No other
// test covers rehash with Adapt on.
func TestChaosRehashAdaptClean(t *testing.T) {
	rep, err := experiments.RunChaosScenario("rehash", testbed.OffloadJuggler,
		experiments.Options{Seed: 5, Quick: true, Adapt: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || rep.Completed < rep.Flows {
		var buf bytes.Buffer
		rep.Fprint(&buf)
		t.Fatalf("rehash scenario not clean:\n%s", buf.String())
	}
}
