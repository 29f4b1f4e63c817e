package juggler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"juggler/internal/experiments"
	"juggler/internal/golden"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// rxGoldenPath freezes the exports of the per-packet receive handoff the
// batched pipeline replaced: for every case of the two tests below, the
// length and SHA-256 of each artefact, recorded while that scalar path
// still existed. The batched pipeline must reproduce them byte for byte.
var rxGoldenPath = filepath.Join("testdata", "rx_golden.json")

// checkRXGolden fingerprints one case's exports and writes them over that
// case in the file's current contents, so rx_golden.json is reproduced
// byte for byte exactly when the case matches its frozen fingerprints;
// regenerating rewrites this case and keeps every other one.
func checkRXGolden(t *testing.T, name string, exports map[string][]byte) {
	t.Helper()
	g := map[string]map[string]golden.Digest{}
	if b, err := os.ReadFile(rxGoldenPath); err == nil { // golden.JSON reports an unreadable file
		if err := json.Unmarshal(b, &g); err != nil {
			t.Fatalf("%s: %v", rxGoldenPath, err)
		}
	}
	fp := map[string]golden.Digest{}
	for k, b := range exports {
		if len(b) == 0 {
			t.Errorf("%s: empty %s export", name, k)
		}
		fp[k] = golden.Fingerprint(b)
	}
	g[name] = fp
	golden.JSON(t, rxGoldenPath, g)
}

// TestBatchMatchesScalar is the batch pipeline's determinism contract
// checked end to end: handing the NAPI poll's drained batch to
// Offload.ReceiveBatch must reproduce the exports of the per-packet
// handoff, frozen in rx_golden.json. The batch path defers only work that
// schedules no simulation events — deadline-queue re-files and the chaos
// probe — so the event sequence, and therefore every export, is required
// to be literally identical. FuzzBatchPartition (internal/core) checks
// the same contract for arbitrary batch splits.
//
// Coverage: two seeds on the public two-host apparatus (with drops and
// reordering so flush, hole and retransmit paths all fire), fingerprinting
// the Perfetto trace, the pcapng capture and the metrics snapshot. Case
// names match the frozen golden keys, which name the reassembly list.
func TestBatchMatchesScalar(t *testing.T) {
	for _, seed := range []int64{5, 9} {
		name := fmt.Sprintf("pair/seed=%d/backend=seglist", seed)
		t.Run(fmt.Sprintf("seed=%d/backend=seglist", seed), func(t *testing.T) {
			p := NewReorderPair(ReorderPairConfig{
				Seed:         seed,
				Receiver:     StackJuggler,
				ReorderDelay: 250 * time.Microsecond,
				DropProb:     0.001,
				Tuning:       DefaultTuning(Rate10G),
				Telemetry:    true,
			})
			p.AddBulkFlow(0)
			p.Run(8 * time.Millisecond)
			var tb, pb, mb bytes.Buffer
			if err := p.WriteTrace(&tb); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			if err := p.WritePcap(&pb); err != nil {
				t.Fatalf("WritePcap: %v", err)
			}
			if err := p.WriteMetrics(&mb); err != nil {
				t.Fatalf("WriteMetrics: %v", err)
			}
			checkRXGolden(t, name, map[string][]byte{"trace": tb.Bytes(), "pcap": pb.Bytes(), "prom": mb.Bytes()})
		})
	}
}

// fig6Exports runs the fig6 sweep on the given number of workers and
// returns its rendered table and the telemetry artifacts exported from the
// designated traced point, keyed as in rx_golden.json.
func fig6Exports(t *testing.T, seed int64, workers int) map[string][]byte {
	t.Helper()
	var sink *telemetry.Sink
	o := experiments.Options{Seed: seed, Quick: true, Workers: workers}
	o.AttachTelemetry = func(s *sim.Sim) {
		sink = telemetry.New(s, telemetry.Options{EventCap: 1 << 14})
	}
	tbl := experiments.Run("fig6", o)
	if tbl == nil {
		t.Fatalf("experiment fig6 not registered")
	}
	var tb bytes.Buffer
	tbl.Fprint(&tb)
	if sink == nil {
		t.Fatalf("no telemetry sink attached (workers=%d)", workers)
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
	return map[string][]byte{"table": tb.Bytes(), "trace": tr.Bytes(), "pcap": pc.Bytes(), "prom": mb.Bytes()}
}

// TestBatchMatchesScalarSweep extends the contract to the sweeping
// apparatus: a serial fig6 sweep run with the batched receive pipeline
// must render the table and export the telemetry artifacts of the
// per-packet serial reference frozen in rx_golden.json.
// TestParallelSweepDeterministic carries the same bytes to -j 8.
func TestBatchMatchesScalarSweep(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		checkRXGolden(t, fmt.Sprintf("fig6/seed=%d", seed), fig6Exports(t, seed, 1))
	}
}

// TestParallelSweepDeterministic is the internal/sweep contract checked end
// to end: running fig6 on 8 workers must produce the same bytes as the
// serial run — the rendered table AND the telemetry artifacts exported from
// the designated traced point. fig6 is the probe because it both sweeps (so
// points really interleave under -j) and attaches the telemetry sink. Two
// seeds guard against a coincidentally stable schedule.
func TestParallelSweepDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		serial := fig6Exports(t, seed, 1)
		for k, b := range fig6Exports(t, seed, 8) {
			if len(serial[k]) == 0 {
				t.Errorf("seed %d: empty serial %s export", seed, k)
			}
			if !bytes.Equal(b, serial[k]) {
				t.Errorf("seed %d: %s export differs between -j 1 and -j 8 (%d vs %d bytes)", seed, k, len(serial[k]), len(b))
			}
		}
	}
}
