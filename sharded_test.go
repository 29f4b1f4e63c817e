package juggler

// The sharded receive datapath's determinism contract, checked end to
// end: `-shards N` must be byte-identical to `-shards 1` — for every
// seed, any sweep width, with and without the
// adaptive controller, for the rendered table AND the exported telemetry
// artifacts, and for the chaos catalog (whose closed-loop scenarios
// ignore the lane count entirely; the flag must still never change their
// reports).

import (
	"bytes"
	"testing"

	"juggler/internal/experiments"
	"juggler/internal/sim"
	"juggler/internal/sweep"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
)

// shardedTable renders one quick shardedrx run.
func shardedTable(t *testing.T, seed int64, shards, workers int, adapt bool) []byte {
	t.Helper()
	tbl := experiments.Run("shardedrx", experiments.Options{
		Seed: seed, Quick: true, Workers: workers, Shards: shards, Adapt: adapt,
	})
	if tbl == nil {
		t.Fatal("experiment shardedrx not registered")
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.Bytes()
}

// TestShardedMatchesSerial sweeps the full matrix: two seeds, lane counts
// 1/2/4/8, sweep widths 1 and 8. The one-lane run is the byte-exact serial
// reference; every other cell must reproduce it exactly. A second pass
// repeats the lane sweep with the per-queue adapt controllers attached
// (their retunes are part of the deterministic output).
func TestShardedMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		ref := shardedTable(t, seed, 1, 1, false)
		if len(ref) == 0 {
			t.Fatalf("seed %d: empty serial table", seed)
		}
		for _, shards := range []int{2, 4, 8} {
			for _, workers := range []int{1, 8} {
				got := shardedTable(t, seed, shards, workers, false)
				if !bytes.Equal(ref, got) {
					t.Errorf("seed %d: table differs at -shards %d -j %d:\n--- serial ---\n%s--- sharded ---\n%s",
						seed, shards, workers, ref, got)
				}
			}
		}
		ref = shardedTable(t, seed, 1, 1, true)
		for _, shards := range []int{2, 4, 8} {
			if got := shardedTable(t, seed, shards, 1, true); !bytes.Equal(ref, got) {
				t.Errorf("seed %d: -adapt table differs at -shards %d:\n--- serial ---\n%s--- sharded ---\n%s",
					seed, shards, ref, got)
			}
		}
	}
}

// TestShardedExportsMatchSerial compares the full telemetry artifact set
// — Perfetto trace, pcapng capture, Prometheus snapshot — between a
// one-lane and an eight-lane shardedrx run. The sink attaches to the
// coordinator sim (lane sims are private to their goroutines), so the
// exports describe the run's coordinator-side view; what the test pins is
// that the lane count leaks into none of it.
func TestShardedExportsMatchSerial(t *testing.T) {
	run := func(shards int) (table, trace, pcap, prom []byte) {
		t.Helper()
		var sink *telemetry.Sink
		o := experiments.Options{Seed: 7, Quick: true, Shards: shards}
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
			t.Fatalf("no telemetry sink attached (shards=%d)", shards)
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
		t.Errorf("table differs between -shards 1 and -shards 8:\n--- serial ---\n%s--- sharded ---\n%s", st, pt)
	}
	if !bytes.Equal(str, ptr) {
		t.Errorf("trace-event JSON differs between -shards 1 and -shards 8 (%d vs %d bytes)", len(str), len(ptr))
	}
	if !bytes.Equal(spc, ppc) {
		t.Errorf("pcapng capture differs between -shards 1 and -shards 8 (%d vs %d bytes)", len(spc), len(ppc))
	}
	if !bytes.Equal(spm, ppm) {
		t.Errorf("metrics snapshot differs between -shards 1 and -shards 8 (%d vs %d bytes)", len(spm), len(ppm))
	}
}

// TestShardedChaosRehashMatchesSerial runs the chaos catalog's RSS-rehash
// scenario — the serial stack's mid-transfer indirection-table rewrite,
// the closest closed-loop cousin of the sharded handoff — with the
// adaptive controller attached, at every -shards level. Chaos scenarios
// are closed-loop (TCP feedback through a shared egress leaves zero
// cross-lane lookahead) and run on the serial engine whatever the flag
// says; this test pins that contract: the reports must be byte-identical
// and clean at every level.
func TestShardedChaosRehashMatchesSerial(t *testing.T) {
	run := func(shards int) []byte {
		t.Helper()
		rep, err := experiments.RunChaosScenario("rehash", testbed.OffloadJuggler,
			experiments.Options{Seed: 5, Quick: true, Shards: shards, Adapt: true}, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Failed() || rep.Completed < rep.Flows {
			var buf bytes.Buffer
			rep.Fprint(&buf)
			t.Fatalf("shards=%d: rehash scenario not clean:\n%s", shards, buf.String())
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		return buf.Bytes()
	}
	ref := run(1)
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards); !bytes.Equal(ref, got) {
			t.Errorf("rehash chaos report differs at -shards %d:\n--- serial ---\n%s--- sharded ---\n%s",
				shards, ref, got)
		}
	}
}

// TestEffectiveWorkersBudget pins the shared -j x -shards goroutine
// budget at the public API level: a sharded run re-budgets the sweep
// width so total goroutines stay at the -j request, and the 0/1 "serial"
// meanings of Workers survive unchanged.
func TestEffectiveWorkersBudget(t *testing.T) {
	cases := []struct {
		j, shards, want int
	}{
		{8, 4, 2},  // 2 points x 4 lanes = the 8 requested
		{8, 1, 8},  // unsharded: -j untouched
		{4, 8, 1},  // budget smaller than one point: floor at 1
		{1, 4, 1},  // serial sweep stays serial
		{3, 2, 1},  // floor division
		{16, 2, 8}, // even split
	}
	for _, c := range cases {
		if got := sweep.EffectiveWorkers(c.j, c.shards); got != c.want {
			t.Errorf("EffectiveWorkers(%d, %d) = %d, want %d", c.j, c.shards, got, c.want)
		}
	}
}
