package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"juggler/internal/golden"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
)

var testFlow = packet.FiveTuple{
	SrcIP: 0x0a000001, DstIP: 0x0a000002,
	SrcPort: 20000, DstPort: 5001, Proto: packet.ProtoTCP,
}

// TestDisabledPathZeroAlloc pins the nil-sink contract: every operation a
// hot receive path performs with telemetry off must allocate nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var k *Sink
	var src int64
	var g *Gauge
	var h *stats.QuantileSketch
	s := sim.New(1) // no sink attached
	p := &packet.Packet{Flow: testFlow, Seq: 1, PayloadLen: 1460}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Sink.Record", func() {
			k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, Seq: 1, N: 3})
		}},
		{"Sink.CapturePacket", func() { k.CapturePacket(-1, true, p) }},
		{"Sink.Track", func() { k.Track("rxq0") }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Histogram.Observe", func() { h.Observe(7) }},
		{"FromSim", func() { FromSim(s) }},
		{"Registry.CounterOf", func() { k.Reg().CounterOf("x", "y", "", "", &src) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op with telemetry disabled, want 0", tc.name, n)
		}
	}
}

// TestRecordZeroAlloc pins the steady-state cost of Sink.Record on each
// route a record can take — flight recorder only, recorder plus the
// flow's decision tallies, recorder plus the retune tally — once the
// flow and its metric families exist: recording must not allocate.
func TestRecordZeroAlloc(t *testing.T) {
	k := New(sim.New(1), Options{EventCap: 64})
	for _, tc := range []struct {
		name string
		r    Record
	}{
		{"recorder", Record{Layer: LayerNIC, Op: OpPoll, N: 12, Note: "batch"}},
		{"recorder+flow-decision", Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow,
			Seq: 0, EndSeq: 1460, N: 1}},
		{"recorder+retune", Record{Layer: LayerHost, Op: OpRetune, Cause: "raise", N: 1000, Note: "ofo"}},
	} {
		r := tc.r
		k.Record(&r) // warm: flow state, counters, cause tally
		if n := testing.AllocsPerRun(200, func() { k.Record(&r) }); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
	if k.Forensics.OpTotal(OpPoll) != 0 || k.Forensics.FlowState(testFlow).Total == 0 || k.Forensics.OpTotal(OpRetune) == 0 {
		t.Fatal("records did not take their routes")
	}
}

// TestRecordSize pins the flight-recorder slot at 104 bytes: Hole and
// Track sit in the word after Layer and Op, and the recorder's memory
// (DESIGN decision 18) is priced at this size.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 104 {
		t.Fatalf("Record is %d bytes, want 104", n)
	}
}

// TestHistogramBucketEdges pins the Prometheus text of a histogram at
// its log2 edges: 0, 1, 2^k - 1 and 2^k for k = 1..30 straddle every le
// line, 2^30 and MaxInt64 land above the last finite edge in +Inf, and
// the sum wraps exactly as int64 addition does.
func TestHistogramBucketEdges(t *testing.T) {
	k := New(sim.New(1), Options{})
	h := k.Reg().Histogram("edge", "Edge values.")
	h.Observe(0)
	h.Observe(1)
	for i := 1; i <= 30; i++ {
		h.Observe(int64(1)<<i - 1)
		h.Observe(int64(1) << i)
	}
	h.Observe(1 << 30)
	h.Observe(math.MaxInt64)
	var buf bytes.Buffer
	if err := k.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP edge Edge values.\n" +
		"# TYPE edge histogram\n" +
		"edge_bucket{le=\"0\"} 1\n" +
		"edge_bucket{le=\"1\"} 3\n" +
		"edge_bucket{le=\"3\"} 5\n" +
		"edge_bucket{le=\"7\"} 7\n" +
		"edge_bucket{le=\"15\"} 9\n" +
		"edge_bucket{le=\"31\"} 11\n" +
		"edge_bucket{le=\"63\"} 13\n" +
		"edge_bucket{le=\"127\"} 15\n" +
		"edge_bucket{le=\"255\"} 17\n" +
		"edge_bucket{le=\"511\"} 19\n" +
		"edge_bucket{le=\"1023\"} 21\n" +
		"edge_bucket{le=\"2047\"} 23\n" +
		"edge_bucket{le=\"4095\"} 25\n" +
		"edge_bucket{le=\"8191\"} 27\n" +
		"edge_bucket{le=\"16383\"} 29\n" +
		"edge_bucket{le=\"32767\"} 31\n" +
		"edge_bucket{le=\"65535\"} 33\n" +
		"edge_bucket{le=\"131071\"} 35\n" +
		"edge_bucket{le=\"262143\"} 37\n" +
		"edge_bucket{le=\"524287\"} 39\n" +
		"edge_bucket{le=\"1048575\"} 41\n" +
		"edge_bucket{le=\"2097151\"} 43\n" +
		"edge_bucket{le=\"4194303\"} 45\n" +
		"edge_bucket{le=\"8388607\"} 47\n" +
		"edge_bucket{le=\"16777215\"} 49\n" +
		"edge_bucket{le=\"33554431\"} 51\n" +
		"edge_bucket{le=\"67108863\"} 53\n" +
		"edge_bucket{le=\"134217727\"} 55\n" +
		"edge_bucket{le=\"268435455\"} 57\n" +
		"edge_bucket{le=\"536870911\"} 59\n" +
		"edge_bucket{le=\"1073741823\"} 61\n" +
		"edge_bucket{le=\"+Inf\"} 64\n" +
		"edge_sum -9223372031486066722\n" +
		"edge_count 64\n"
	if got := buf.String(); got != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramMergeEqualsUnionStream: merging two registry histograms
// must be indistinguishable from one histogram that observed both
// streams — sketch state and Prometheus text alike. That exactness (no
// re-bucketing, no sampling) is what makes rollups path-independent.
func TestHistogramMergeEqualsUnionStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		regs := [3]*Registry{}
		hs := [3]*stats.QuantileSketch{}
		for i := range regs {
			regs[i] = New(sim.New(1), Options{}).Reg()
			hs[i] = regs[i].Histogram("h", "Merged.")
		}
		a, b, union := hs[0], hs[1], hs[2]
		for i := 0; i < 500; i++ {
			// Spread across many octaves, including <=0 and values
			// above the last finite Prometheus edge.
			v := rng.Int63n(1<<uint(rng.Intn(63))+1) - 2
			if rng.Intn(2) == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			union.Observe(v)
		}
		a.Merge(b)
		if *a != *union {
			t.Fatalf("trial %d: merged histogram differs from union-stream histogram", trial)
		}
		var merged, whole bytes.Buffer
		if err := regs[0].WriteProm(&merged); err != nil {
			t.Fatal(err)
		}
		if err := regs[2].WriteProm(&whole); err != nil {
			t.Fatal(err)
		}
		if merged.String() != whole.String() {
			t.Fatalf("trial %d: merged export:\n%s\nunion export:\n%s", trial, &merged, &whole)
		}
	}
}

// TestRecorderRing verifies rotation keeps the newest events and the
// offered counters keep counting past capacity.
func TestRecorderRing(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 4})
	for i := 0; i < 10; i++ {
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Seq: uint32(i)})
	}
	ev := k.Recorder.Records()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	if ev[0].Seq != 6 || ev[3].Seq != 9 {
		t.Fatalf("ring kept %d..%d, want 6..9", ev[0].Seq, ev[3].Seq)
	}
	if k.Recorder.Total != 10 {
		t.Fatalf("Total = %d, want 10", k.Recorder.Total)
	}
	if k.Recorder.ByLayer[LayerCore] != 10 || k.Recorder.Layers() != 1 {
		t.Fatalf("per-layer accounting off: %v", k.Recorder.ByLayer)
	}
}

// TestRecorderSummaryCountsInPlace: Summary on a full default recorder
// counts the records where they lie, allocating little beyond its short
// result (copying them out would cost 6.8 MB), and names only the
// retained records, in op order.
func TestRecorderSummaryCountsInPlace(t *testing.T) {
	k := New(sim.New(1), Options{})
	for i := 0; i < 1<<16+100; i++ {
		op := OpFlush
		if i%3 == 0 {
			op = OpBuffer
		}
		k.Record(&Record{Layer: LayerCore, Op: op, Seq: uint32(i)})
	}
	const n = 4
	var got string
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		got = k.Recorder.Summary()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4<<10 {
		t.Errorf("Summary allocated %d bytes per call on a full recorder, want < 4 KiB", per)
	}
	// Records 100..65635 are retained; 21845 of them have i%3 == 0.
	if want := "flush=43691 buffer=21845"; got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
}

// fixtureSink builds a deterministic sink with events on several layers,
// labeled metrics, and a two-packet capture — the golden-file scenario.
func fixtureSink() *Sink {
	s := sim.New(1)
	k := New(s, Options{EventCap: 16})
	rxq := k.Track("eth0/rxq0")
	iface := k.Iface("eth0/rx")

	flushEvent, flushInseq := int64(3), int64(2)
	k.Reg().CounterOf("juggler_flush_total", "Flushes by reason.", "reason", "event", &flushEvent)
	k.Reg().CounterOf("juggler_flush_total", "Flushes by reason.", "reason", "inseq_timeout", &flushInseq)
	k.Reg().Gauge("buffered_bytes", "Bytes buffered.").Set(2920)
	h := k.Reg().Histogram("flush_pkts", "Packets per flush.")
	h.Observe(0)
	h.Observe(3)
	h.Observe(17)

	step := func(r Record) {
		k.Record(&r)
		s.RunFor(1000) // 1us between records
	}
	step(Record{Layer: LayerNIC, Op: OpCoalesce, Track: rxq, N: 2, Note: "timer"})
	step(Record{Layer: LayerNIC, Op: OpPoll, Track: rxq, N: 2})
	step(Record{Layer: LayerGRO, Op: OpFlush, Flow: testFlow, Seq: 1460, N: 2, Note: "sealed"})
	step(Record{Layer: LayerCore, Op: OpBuffer, Flow: testFlow, Seq: 4380, N: 1460, Note: "buildup"})
	step(Record{Layer: LayerTCP, Op: OpCwnd, Flow: testFlow, Seq: 2920, N: 14600, Note: "fast-recovery"})
	step(Record{Layer: LayerFabric, Op: OpDrop, Flow: testFlow, Seq: 5840, N: 1500, Note: "queue-full"})

	p1 := &packet.Packet{Flow: testFlow, Seq: 1, PayloadLen: 1460, Flags: packet.FlagACK | packet.FlagPSH}
	k.CapturePacket(iface, true, p1)
	s.RunFor(500)
	p2 := &packet.Packet{Flow: testFlow.Reverse(), AckSeq: 1461, Flags: packet.FlagACK, CE: true}
	k.CapturePacket(iface, false, p2)
	return k
}

func TestTraceEventGolden(t *testing.T) {
	k := fixtureSink()
	var buf bytes.Buffer
	if err := k.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural validity first: the export must parse as JSON with the
	// trace-event envelope Perfetto expects.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	golden.Check(t, filepath.Join("testdata", "fixture.trace.json"), buf.Bytes())
}

func TestPcapGolden(t *testing.T) {
	k := fixtureSink()
	var buf bytes.Buffer
	if err := k.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// SHB magic and byte-order magic.
	if len(b) < 16 || b[0] != 0x0a || b[1] != 0x0d || b[2] != 0x0d || b[3] != 0x0a {
		t.Fatalf("missing SHB magic: % x", b[:8])
	}
	if b[8] != 0x4d || b[9] != 0x3c || b[10] != 0x2b || b[11] != 0x1a {
		t.Fatalf("missing byte-order magic: % x", b[8:12])
	}
	golden.Check(t, filepath.Join("testdata", "fixture.pcapng"), b)
}

func TestPromGolden(t *testing.T) {
	k := fixtureSink()
	var buf bytes.Buffer
	if err := k.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "fixture.prom"), buf.Bytes())
}

// TestExportsDeterministic re-runs the fixture and demands byte-identical
// artifacts — the property the same-seed CLI workflow depends on.
func TestExportsDeterministic(t *testing.T) {
	render := func() (a, b, c []byte) {
		k := fixtureSink()
		var t1, t2, t3 bytes.Buffer
		k.WriteTrace(&t1)
		k.WritePcap(&t2)
		k.Metrics.WriteProm(&t3)
		return t1.Bytes(), t2.Bytes(), t3.Bytes()
	}
	a1, b1, c1 := render()
	a2, b2, c2 := render()
	if !bytes.Equal(a1, a2) {
		t.Error("trace JSON differs across identical runs")
	}
	if !bytes.Equal(b1, b2) {
		t.Error("pcapng differs across identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("metrics snapshot differs across identical runs")
	}
}

// TestRegistryLabels verifies counter views over shared families: one
// (name, label) child sums every source its callers register, a pointer
// registered twice counts once (ReorderPair.EnableTrace re-instruments
// live Jugglers), a nil source still prints a 0 line, the export reads
// sources at write time, and re-registration with a different shape
// panics.
func TestRegistryLabels(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{})
	r := k.Reg()
	a, b := int64(2), int64(5)
	r.CounterOf("f_total", "h", "reason", "x", &a)
	r.CounterOf("f_total", "h", "reason", "x", &b)
	r.CounterOf("f_total", "h", "reason", "x", &a)
	r.CounterOf("f_total", "h", "reason", "y", nil)
	r.CounterOf("u_total", "h", "", "", &b)
	a++
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP f_total h\n# TYPE f_total counter\n" +
		"f_total{reason=\"x\"} 8\nf_total{reason=\"y\"} 0\n" +
		"# HELP u_total h\n# TYPE u_total counter\nu_total 5\n"
	if got := buf.String(); got != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering f_total as a gauge should panic")
		}
	}()
	r.Gauge("f_total", "h")
}

// TestNilSinkExports verifies every exporter is a no-op on nil.
func TestNilSinkExports(t *testing.T) {
	var k *Sink
	var buf bytes.Buffer
	if err := k.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil WriteTrace should write nothing")
	}
	if err := k.WritePcap(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil WritePcap should write nothing")
	}
	if err := k.Reg().WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil WriteProm should write nothing")
	}
	if k.Track("x") != 0 || k.Iface("x") != -1 {
		t.Error("nil track/iface defaults wrong")
	}
}

// BenchmarkRecordDisabled measures the disabled-telemetry cost on the hot
// path (should be ~1ns: one nil check).
func BenchmarkRecordDisabled(b *testing.B) {
	var k *Sink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, Seq: uint32(i)})
	}
}

// BenchmarkRecordEnabled measures the recording cost with telemetry on,
// for an audited decision: one copy into the flight recorder plus the
// flow's forensics tallies.
func BenchmarkRecordEnabled(b *testing.B) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 1 << 12})
	b.ReportAllocs()
	b.ResetTimer() // New's rings are setup, not recording
	for i := 0; i < b.N; i++ {
		k.Record(&Record{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow, Seq: uint32(i)})
	}
}
