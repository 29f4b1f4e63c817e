package replay

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/experiments"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

func fig6(t *testing.T) *Trace {
	t.Helper()
	tr, err := ParseFile("../../testdata/fig6.trace")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunFig6 replays the Figure-6 build-up (packets 3, 5, 2 arrive out
// of order): 2 and 3 coalesce when inseq_timeout fires, and 5 waits out
// ofo_timeout behind the hole where 4 should be.
func TestRunFig6(t *testing.T) {
	tr := fig6(t)
	var got []string
	_, _, sink := Run(tr, Config{Seed: 1, Core: core.DefaultConfig(),
		OnDeliver: func(now time.Duration, seg *packet.Segment) {
			got = append(got, fmt.Sprintf("%v %s seq=%d len=%d pkts=%d",
				now, tr.FlowName(seg.Flow), seg.Seq, seg.Bytes, seg.Pkts))
		}})
	want := []string{
		"15µs a seq=2920 len=2920 pkts=2",
		"65µs a seq=7300 len=1460 pkts=1",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries = %q, want %q", got, want)
	}
	// Every delivery is stamped and attributed to the gro_table hold.
	if n := sink.Forensics.Delivered(); n != 2 {
		t.Fatalf("forensics attributed %d deliveries, want 2", n)
	}
	if sink.Capture.Len() != 3 {
		t.Fatalf("captured %d arrivals, want 3", sink.Capture.Len())
	}
}

// TestRunDeterministic replays one trace twice with the same seed: the
// exports must match byte for byte, and the trace must be reusable.
func TestRunDeterministic(t *testing.T) {
	tr := fig6(t)
	export := func() []byte {
		_, _, sink := Run(tr, Config{Seed: 3, Core: core.DefaultConfig(), StampSample: 2})
		var b bytes.Buffer
		if err := sink.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		if err := sink.WritePcap(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := export(), export(); len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("same-seed replays exported different bytes")
	}
}

// TestRecordedRunReplays records a quick fig6 experiment the way
// juggler-doctor -record does, appends a line for every op this build
// knows, a line in the format written before records carried a cause,
// and a line of an op this build does not know, then replays the file:
// every record survives with its op and cause, the unknown one included.
func TestRecordedRunReplays(t *testing.T) {
	var rec *telemetry.Recorder
	o := experiments.Options{Seed: 1, Quick: true}
	o.AttachTelemetry = func(s *sim.Sim) { rec = telemetry.New(s, telemetry.Options{}).Recorder }
	if experiments.Run("fig6", o) == nil || rec == nil {
		t.Fatal("fig6 did not run with telemetry attached")
	}
	var buf bytes.Buffer
	if err := rec.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	records := rec.Records()
	recorded := len(records)
	for o := telemetry.Op(0); int(o) < telemetry.NumOps; o++ {
		fmt.Fprintf(&buf, "ev 1ms core %s 10.0.0.1:1>10.0.0.2:2/6 0 1 cause=c%d note %d\n", o, o, o)
	}
	buf.WriteString("ev 1ms core retransmit 10.0.0.1:1>10.0.0.2:2/6 0 1460 inferred\n")
	buf.WriteString("ev 1ms core future-kind 10.0.0.1:1>10.0.0.2:2/6 0 1 from a newer build\n")
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]int{"future-kind": 1, "retransmit": 1}
	for _, e := range records {
		want[e.Op.String()]++
	}
	for o := telemetry.Op(0); int(o) < telemetry.NumOps; o++ {
		want[o.String()]++
	}
	got := map[string]int{}
	for i, e := range tr.Events {
		got[e.Op]++
		if i < recorded {
			if r := records[i]; e.Cause != r.Cause || e.Note != r.Note || !e.Known {
				t.Fatalf("record %d replayed as %+v, recorded %+v", i, e, r)
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) < 3 {
		t.Fatalf("replayed op tallies %v, want %v", got, want)
	}
	extra := tr.Events[recorded:]
	for o := telemetry.Op(0); int(o) < telemetry.NumOps; o++ {
		e := extra[o]
		if !e.Known || e.Op != o.String() || e.Cause != fmt.Sprintf("c%d", o) || e.Note != fmt.Sprintf("note %d", o) {
			t.Fatalf("op %v did not round-trip: %+v", o, e)
		}
	}
	if old := extra[telemetry.NumOps]; !old.Known || old.Cause != "" || old.Note != "inferred" {
		t.Fatalf("cause-less line misparsed: %+v", old)
	}
	if len(tr.UnknownOps) != 1 || tr.UnknownOps["future-kind"] != 1 {
		t.Fatalf("unknown ops = %v, want future-kind=1", tr.UnknownOps)
	}
	if last := tr.Events[len(tr.Events)-1]; last.Known || last.Note != "from a newer build" {
		t.Fatalf("unknown record not preserved verbatim: %+v", last)
	}
	// An events-only run has no packets; the driver still runs cleanly.
	if _, _, sink := Run(tr, Config{Seed: 1, Core: core.DefaultConfig()}); sink.Forensics.Delivered() != 0 {
		t.Fatal("events-only replay delivered segments")
	}
}
