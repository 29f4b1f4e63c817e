package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// segRecord captures everything observable about one delivered segment.
type segRecord struct {
	at    sim.Time
	flow  uint16
	seq   uint32
	bytes int
	pkts  int
	flags packet.Flags
}

// runTimeoutWorkload drives one Juggler through a reordered, lossy,
// multi-flow workload and returns the full delivery record plus final
// state.
func runTimeoutWorkload(inseq, ofo time.Duration) ([]segRecord, Stats, string) {
	s := sim.New(42)
	cfg := Config{
		InseqTimeout: inseq,
		OfoTimeout:   ofo,
		MaxFlows:     16, // < flow count: eviction in play too
	}
	var recs []segRecord
	j := New(s, cfg, func(seg *packet.Segment) {
		recs = append(recs, segRecord{
			at: s.Now(), flow: seg.Flow.SrcPort, seq: seg.Seq,
			bytes: seg.Bytes, pkts: seg.Pkts, flags: seg.Flags,
		})
	})
	j.Probe = j.checkInvariants

	// Poll completions at NAPI-ish cadence, like the NIC would issue.
	sim.NewTicker(s, 10*time.Microsecond, j.PollComplete)

	// 40 flows, 60 packets each: random arrival jitter reorders freely,
	// ~3% of packets are dropped outright (permanent holes -> ofo expiry,
	// loss recovery), ~2% are duplicated.
	rng := s.Rand()
	for f := 0; f < 40; f++ {
		flow := packet.FiveTuple{
			SrcIP: uint32(f%5) + 1, DstIP: 9,
			SrcPort: uint16(1000 + f), DstPort: 5001, Proto: packet.ProtoTCP,
		}
		hash := flow.Hash(0)
		base := sim.Time(rng.Intn(200)) * sim.Time(time.Microsecond)
		for i := 0; i < 60; i++ {
			if rng.Intn(100) < 3 {
				continue // dropped on the wire
			}
			at := base + sim.Time(i)*sim.Time(2*time.Microsecond) +
				sim.Time(rng.Intn(40))*sim.Time(time.Microsecond)
			p := packet.Packet{
				Flow: flow, FlowHash: hash,
				Seq:        1 + uint32(i)*units.MSS,
				PayloadLen: units.MSS,
				Flags:      packet.FlagACK,
			}
			if i == 59 {
				p.Flags |= packet.FlagPSH
			}
			n := 1
			if rng.Intn(100) < 2 {
				n = 2 // duplicated in flight
			}
			for ; n > 0; n-- {
				q := p
				s.ScheduleAt(at, func() { j.Receive(&q) })
				at += sim.Time(time.Microsecond)
			}
		}
	}
	s.RunFor(5 * time.Millisecond)
	j.Flush()
	if err := j.CheckInvariants(); err != nil {
		panic(err)
	}
	state := fmt.Sprintf("active=%d inactive=%d loss=%d table=%d buffered=%d/%d events=%d",
		j.ActiveLen(), j.InactiveLen(), j.LossLen(), j.TableLen(),
		j.BufferedBytes(), j.BufferedPkts(), s.Executed)
	return recs, j.Stats, state
}

// timeoutPoint is one (inseq, ofo) point of timeout_golden.json: a digest
// of every delivery record, the Stats and the final state, plus the flush
// counts in the clear so a drift shows which expiry moved.
type timeoutPoint struct {
	Segments   int    `json:"segments"`
	Digest     string `json:"sha256"`
	FlushEvent int64  `json:"flush_event"`
	FlushInseq int64  `json:"flush_inseq"`
	FlushOfo   int64  `json:"flush_ofo"`
	FlushEvict int64  `json:"flush_evict"`
}

func digestTimeoutRun(recs []segRecord, st Stats, state string) timeoutPoint {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	fmt.Fprintf(h, "%+v\n%s\n", st, state)
	return timeoutPoint{
		Segments:   len(recs),
		Digest:     hex.EncodeToString(h.Sum(nil)),
		FlushEvent: st.FlushEvent,
		FlushInseq: st.FlushInseqTimeout,
		FlushOfo:   st.FlushOfoTimeout,
		FlushEvict: st.FlushEvict,
	}
}

// TestTimeoutWheelMatchesScan sweeps the two timeouts across their τ−τ0
// regimes (the fig13/fig14 axes, including the degenerate zeros) and
// requires the deadline-queue expiry to reproduce the O(flows) full-scan
// expiry it replaced exactly — same segments, same order, same delivery
// instants, same statistics, same final state, same simulator event
// count — as recorded from that scan in testdata/timeout_golden.json.
// Regenerate with UPDATE_GOLDEN=1 only for a change that is meant to
// alter expiry.
func TestTimeoutWheelMatchesScan(t *testing.T) {
	inseqs := []time.Duration{0, 5 * time.Microsecond, 15 * time.Microsecond}
	ofos := []time.Duration{0, 25 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond}
	path := filepath.Join("testdata", "timeout_golden.json")
	update := os.Getenv("UPDATE_GOLDEN") != ""
	want := map[string]timeoutPoint{}
	if !update {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got := map[string]timeoutPoint{}
	for _, inseq := range inseqs {
		for _, ofo := range ofos {
			name := fmt.Sprintf("inseq=%v_ofo=%v", inseq, ofo)
			t.Run(name, func(t *testing.T) {
				p := digestTimeoutRun(runTimeoutWorkload(inseq, ofo))
				got[name] = p
				if !update && p != want[name] {
					t.Errorf("expiry drifted from %s:\ngot  %+v\nwant %+v", path, p, want[name])
				}
				if p.FlushInseq+p.FlushOfo == 0 && ofo > 0 && inseq > 0 {
					t.Fatal("workload exercised no timeout flushes; test is vacuous")
				}
			})
		}
	}
	if update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
