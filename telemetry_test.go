package juggler

import (
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/packet"
	"juggler/internal/telemetry"
)

// recordedRun is one pair run with a full telemetry sink whose flight
// recorder did not rotate, plus the receiver's summed core Stats.
type recordedRun struct {
	name  string
	sink  *telemetry.Sink
	stats core.Stats
}

// recordedRuns drives the pair apparatus of TestBatchMatchesScalar (seeds
// 5 and 9: reordering and drops, so timeouts, loss recovery and
// retransmissions fire) and a churn run — eight bulk flows and a
// closed-loop RPC stream through a two-entry flow table under the adapt
// controller — that adds event flushes, evictions and retunes.
func recordedRuns(t *testing.T) []recordedRun {
	t.Helper()
	type spec struct {
		name   string
		seed   int64
		flows  int
		rpc    bool
		tuning Tuning
	}
	churn := DefaultTuning(Rate10G)
	churn.MaxFlows, churn.Adapt = 2, true
	var runs []recordedRun
	for _, sp := range []spec{
		{"pair/seed=5", 5, 1, false, DefaultTuning(Rate10G)},
		{"pair/seed=9", 9, 1, false, DefaultTuning(Rate10G)},
		{"churn/seed=1", 1, 8, true, churn},
	} {
		p := NewReorderPair(ReorderPairConfig{
			Seed:         sp.seed,
			Receiver:     StackJuggler,
			ReorderDelay: 250 * time.Microsecond,
			DropProb:     0.001,
			Tuning:       sp.tuning,
			Telemetry:    true,
		})
		for i := 0; i < sp.flows; i++ {
			p.AddBulkFlow(0)
		}
		if sp.rpc {
			// PSH-terminated messages seal segments: event flushes.
			rs := p.AddRPCStream()
			rs.OnComplete(func() { rs.Send(16 << 10) })
			rs.Send(16 << 10)
		}
		p.Run(8 * time.Millisecond)
		k := telemetry.FromSim(p.s)
		if int64(k.Recorder.Len()) != k.Recorder.Total {
			t.Fatalf("%s: flight recorder rotated (%d of %d kept)", sp.name, k.Recorder.Len(), k.Recorder.Total)
		}
		r := recordedRun{name: sp.name, sink: k}
		for _, j := range p.tb.Receiver.Jugglers {
			r.stats.Add(j.Stats)
		}
		runs = append(runs, r)
	}
	return runs
}

// TestForensicsMatchesCoreStats checks the forensics tallies, and the
// core-layer records of a flight recorder that did not rotate, against
// the receiver's core Stats: every counted flush, pass-through, timeout,
// loss-recovery transition and eviction is recorded exactly once, with
// the cause that counted it. CauseCount pools layers (vanilla GRO also
// flushes with cause "sealed"), so event flushes are compared on the
// core-layer records only.
func TestForensicsMatchesCoreStats(t *testing.T) {
	nonZero := map[string]bool{}
	for _, r := range recordedRuns(t) {
		f := r.sink.Forensics
		type key struct {
			op    telemetry.Op
			cause string
		}
		byCause := map[key]int64{}
		byOp := map[telemetry.Op]int64{}
		for _, rec := range r.sink.Recorder.Records() {
			if rec.Layer == telemetry.LayerCore {
				byCause[key{rec.Op, rec.Cause}]++
				byOp[rec.Op]++
			}
		}
		st := r.stats
		evictions := st.EvictionsInactive + st.EvictionsActive + st.EvictionsLoss
		eventFlushes := byCause[key{telemetry.OpFlush, core.CauseSealed}] +
			byCause[key{telemetry.OpFlush, core.CauseFull}] + byCause[key{telemetry.OpFlush, core.CauseBoundary}]
		for _, c := range []struct {
			name            string
			forensics, want int64
		}{
			{"flush event (recorder)", eventFlushes, st.FlushEvent},
			{"flush inseq_timeout", f.CauseCount(telemetry.OpFlush, core.CauseInseq), st.FlushInseqTimeout},
			{"flush ofo_timeout", f.CauseCount(telemetry.OpFlush, core.CauseOfo), st.FlushOfoTimeout},
			{"flush evict", f.CauseCount(telemetry.OpFlush, core.CauseEvict), st.FlushEvict},
			{"pass retransmission", f.CauseCount(telemetry.OpPass, "retransmission"), st.Retransmissions},
			{"pass duplicate", f.CauseCount(telemetry.OpPass, "duplicate"), st.Duplicates},
			{"timeout ofo_timeout", f.CauseCount(telemetry.OpTimeout, core.CauseOfo), st.OfoTimeouts},
			{"phase ofo_timeout", f.CauseCount(telemetry.OpPhase, core.CauseOfo), st.LossRecoveryEntered},
			{"phase hole-filled", f.CauseCount(telemetry.OpPhase, "hole-filled"), st.LossRecoveryExited},
			{"evict", f.OpTotal(telemetry.OpEvict), evictions},
			// The recorder holds the same sums, op by op and cause by cause.
			{"recorder flush inseq_timeout", byCause[key{telemetry.OpFlush, core.CauseInseq}], st.FlushInseqTimeout},
			{"recorder flush ofo_timeout", byCause[key{telemetry.OpFlush, core.CauseOfo}], st.FlushOfoTimeout},
			{"recorder flush evict", byCause[key{telemetry.OpFlush, core.CauseEvict}], st.FlushEvict},
			{"recorder flush", byOp[telemetry.OpFlush],
				st.FlushEvent + st.FlushInseqTimeout + st.FlushOfoTimeout + st.FlushEvict},
			{"recorder pass", byOp[telemetry.OpPass], st.Retransmissions + st.Duplicates},
			{"recorder timeout ofo_timeout", byCause[key{telemetry.OpTimeout, core.CauseOfo}], st.OfoTimeouts},
			{"recorder phase ofo_timeout", byCause[key{telemetry.OpPhase, core.CauseOfo}], st.LossRecoveryEntered},
			{"recorder phase hole-filled", byCause[key{telemetry.OpPhase, "hole-filled"}], st.LossRecoveryExited},
			{"recorder evict", byOp[telemetry.OpEvict], evictions},
		} {
			if c.forensics != c.want {
				t.Errorf("%s: %s = %d, core Stats say %d", r.name, c.name, c.forensics, c.want)
			}
			if c.want != 0 {
				nonZero[c.name] = true
			}
		}
		t.Logf("%s: stats %+v", r.name, st)
	}
	for _, name := range []string{"flush event (recorder)", "flush inseq_timeout", "flush ofo_timeout",
		"flush evict", "pass retransmission", "pass duplicate", "timeout ofo_timeout",
		"phase ofo_timeout", "phase hole-filled", "evict"} {
		if !nonZero[name] {
			t.Errorf("%s is zero in every run: the comparison proves nothing", name)
		}
	}
}

// TestFlightRecorderHoldsAuditRings is the one-store invariant: the
// flight recorder holds every decision, so in runs where it did not rotate
// each tracked flow's exact decision tally, and the retune tally, equal
// the decisions it holds. It also pins the routing predicate: a record
// carries a cause exactly when it is a GRO or core flush, phase, evict,
// timeout or pass decision, or a retune.
func TestFlightRecorderHoldsAuditRings(t *testing.T) {
	sawRetune := false
	for _, r := range recordedRuns(t) {
		held := map[packet.FiveTuple]int64{}
		var retunes int64
		for i, rec := range r.sink.Recorder.Records() {
			decision := rec.Op == telemetry.OpRetune
			switch rec.Op {
			case telemetry.OpFlush, telemetry.OpPhase, telemetry.OpEvict, telemetry.OpTimeout, telemetry.OpPass:
				decision = rec.Layer == telemetry.LayerGRO || rec.Layer == telemetry.LayerCore
			}
			if decision != (rec.Cause != "") {
				t.Fatalf("%s: record %d %s/%s has cause %q", r.name, i, rec.Layer, rec.Op, rec.Cause)
			}
			if rec.Op == telemetry.OpRetune {
				retunes++
			} else if decision {
				held[rec.Flow]++
			}
		}
		f := r.sink.Forensics
		if len(f.Flows()) == 0 {
			t.Fatalf("%s: no flow forensic state", r.name)
		}
		for _, fe := range f.Flows() {
			if fe.Total != held[fe.Flow] || int64(len(fe.Decisions())) != min(held[fe.Flow], 64) {
				t.Fatalf("%s: flow %v tallies %d decisions and views %d, the recorder holds %d",
					r.name, fe.Flow, fe.Total, len(fe.Decisions()), held[fe.Flow])
			}
		}
		if got := f.OpTotal(telemetry.OpRetune); got != retunes {
			t.Fatalf("%s: OpTotal(retune) = %d, the recorder holds %d", r.name, got, retunes)
		}
		sawRetune = sawRetune || retunes > 0
	}
	if !sawRetune {
		t.Fatal("no run retuned: the retune view went unchecked")
	}
}
