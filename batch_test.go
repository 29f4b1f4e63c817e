package juggler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"juggler/internal/experiments"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// rxGoldenPath freezes the exports of the per-packet receive handoff the
// batched pipeline replaced: for every case of the two tests below, the
// length and SHA-256 of each artefact, recorded while that scalar path
// still existed. The batched pipeline must reproduce them byte for byte.
// Regenerate with UPDATE_GOLDEN=1 only for a change that is meant to
// alter the simulation.
var rxGoldenPath = filepath.Join("testdata", "rx_golden.json")

// artefact is one export's fingerprint in rx_golden.json.
type artefact struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

func fingerprint(b []byte) artefact {
	sum := sha256.Sum256(b)
	return artefact{Len: len(b), SHA256: hex.EncodeToString(sum[:])}
}

// readRXGolden loads rx_golden.json; a missing file is empty.
func readRXGolden(t *testing.T) map[string]map[string]artefact {
	t.Helper()
	g := map[string]map[string]artefact{}
	b, err := os.ReadFile(rxGoldenPath)
	if os.IsNotExist(err) {
		return g
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", rxGoldenPath, err)
	}
	return g
}

// recordRXGolden stores one case's fingerprints under UPDATE_GOLDEN=1,
// keeping every other case already in the file.
func recordRXGolden(t *testing.T, name string, exports map[string][]byte) {
	t.Helper()
	g := readRXGolden(t)
	fp := map[string]artefact{}
	for k, b := range exports {
		fp[k] = fingerprint(b)
	}
	g[name] = fp
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rxGoldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkRXGolden compares one run's exports against the frozen case.
func checkRXGolden(t *testing.T, name, run string, exports map[string][]byte) {
	t.Helper()
	want, ok := readRXGolden(t)[name]
	if !ok {
		t.Fatalf("%s has no case %q (run with UPDATE_GOLDEN=1)", rxGoldenPath, name)
	}
	if len(want) != len(exports) {
		t.Fatalf("%s: golden holds %d exports, run produced %d", name, len(want), len(exports))
	}
	for k, b := range exports {
		if len(b) == 0 {
			t.Errorf("%s: empty %s export (%s)", name, k, run)
		}
		if got := fingerprint(b); got != want[k] {
			t.Errorf("%s: %s export drifted from %s (%s): got %d bytes %s, want %d bytes %s",
				name, k, rxGoldenPath, run, got.Len, got.SHA256[:12], want[k].Len, want[k].SHA256[:12])
		}
	}
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
			got := map[string][]byte{"trace": tb.Bytes(), "pcap": pb.Bytes(), "prom": mb.Bytes()}
			if os.Getenv("UPDATE_GOLDEN") != "" {
				recordRXGolden(t, name, got)
			}
			checkRXGolden(t, name, "batch", got)
		})
	}
}

// TestBatchMatchesScalarSweep extends the contract to the sweeping
// apparatus: a fig6 sweep run with the batched receive pipeline — serial
// AND on 8 workers — must render the table and export the telemetry
// artifacts of the per-packet serial reference frozen in rx_golden.json.
// The -j dimension proves the batch path introduced no scheduling
// coupling between concurrently-simulated points.
func TestBatchMatchesScalarSweep(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		name := fmt.Sprintf("fig6/seed=%d", seed)
		run := func(workers int) map[string][]byte {
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
		if os.Getenv("UPDATE_GOLDEN") != "" {
			recordRXGolden(t, name, run(1))
		}
		for _, workers := range []int{1, 8} {
			checkRXGolden(t, name, fmt.Sprintf("-j %d", workers), run(workers))
		}
	}
}
