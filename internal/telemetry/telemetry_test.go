package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"juggler/internal/golden"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

var testFlow = packet.FiveTuple{
	SrcIP: 0x0a000001, DstIP: 0x0a000002,
	SrcPort: 20000, DstPort: 5001, Proto: packet.ProtoTCP,
}

// TestDisabledPathZeroAlloc pins the nil-sink contract: every operation a
// hot receive path performs with telemetry off must allocate nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var k *Sink
	var c *Counter
	var g *Gauge
	var h *Histogram
	s := sim.New(1) // no sink attached
	p := &packet.Packet{Flow: testFlow, Seq: 1, PayloadLen: 1460}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Sink.Event", func() {
			k.Event(Event{Layer: LayerCore, Kind: KindFlush, Flow: testFlow, Seq: 1, N: 3, Note: "x"})
		}},
		{"Sink.CapturePacket", func() { k.CapturePacket(-1, true, p) }},
		{"Sink.Track", func() { k.Track("rxq0") }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(7) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Histogram.Observe", func() { h.Observe(7) }},
		{"FromSim", func() { FromSim(s) }},
		{"Registry.Counter", func() { k.Reg().Counter("x", "y") }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op with telemetry disabled, want 0", tc.name, n)
		}
	}
}

// TestEnabledEventZeroAlloc verifies recording into a pre-sized ring does
// not allocate either (constant-string notes, by-value events).
func TestEnabledEventZeroAlloc(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 64})
	if n := testing.AllocsPerRun(200, func() {
		k.Event(Event{Layer: LayerNIC, Kind: KindPoll, Track: 0, N: 12, Note: "batch"})
	}); n != 0 {
		t.Errorf("enabled Event: %v allocs/op, want 0", n)
	}
}

// TestHistogramBucketEdges checks the log2 bucketing at its boundaries:
// zero and negatives, exact powers of two, the top finite bucket, and
// overflow into +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, math.MaxInt64} {
		h.Observe(v)
	}
	want := map[int]int64{
		0:               2, // -5 and 0
		1:               1, // 1
		2:               2, // 2 and 3 land in [2, 3]
		3:               1, // 4 lands in [4, 7]
		histBuckets - 1: 1, // MaxInt64 overflows
	}
	for i := 0; i < histBuckets; i++ {
		if got := h.Bucket(i); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	// Boundary mapping itself: 2^k-1 and 2^k straddle buckets k and k+1.
	for k := 2; k < histBuckets-1; k++ {
		hi := int64(1)<<uint(k) - 1
		if bucketOf(hi) != k {
			t.Errorf("bucketOf(2^%d-1) = %d, want %d", k, bucketOf(hi), k)
		}
		if k+1 < histBuckets-1 && bucketOf(hi+1) != k+1 {
			t.Errorf("bucketOf(2^%d) = %d, want %d", k, bucketOf(hi+1), k+1)
		}
	}
	if bucketUpper(0) != 0 || bucketUpper(3) != 7 {
		t.Errorf("bucketUpper: got %d, %d", bucketUpper(0), bucketUpper(3))
	}
}

// TestRecorderRing verifies rotation keeps the newest events and the
// offered counters keep counting past capacity.
func TestRecorderRing(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 4})
	for i := 0; i < 10; i++ {
		k.Event(Event{Layer: LayerCore, Kind: KindFlush, Seq: uint32(i)})
	}
	ev := k.Recorder.Events()
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

// fixtureSink builds a deterministic sink with events on several layers,
// labeled metrics, and a two-packet capture — the golden-file scenario.
func fixtureSink() *Sink {
	s := sim.New(1)
	k := New(s, Options{EventCap: 16, PacketCap: 8})
	rxq := k.Track("eth0/rxq0")
	iface := k.Iface("eth0/rx")

	k.Reg().CounterL("juggler_flush_total", "Flushes by reason.", "reason", "event").Add(3)
	k.Reg().CounterL("juggler_flush_total", "Flushes by reason.", "reason", "inseq_timeout").Add(2)
	k.Reg().Gauge("buffered_bytes", "Bytes buffered.").Set(2920)
	h := k.Reg().Histogram("flush_pkts", "Packets per flush.")
	h.Observe(0)
	h.Observe(3)
	h.Observe(17)

	step := func(e Event) {
		k.Event(e)
		s.RunFor(1000) // 1us between events
	}
	step(Event{Layer: LayerNIC, Kind: KindCoalesce, Track: rxq, N: 2, Note: "timer"})
	step(Event{Layer: LayerNIC, Kind: KindPoll, Track: rxq, N: 2})
	step(Event{Layer: LayerGRO, Kind: KindFlush, Flow: testFlow, Seq: 1460, N: 2, Note: "sealed"})
	step(Event{Layer: LayerCore, Kind: KindBuffer, Flow: testFlow, Seq: 4380, N: 1460, Note: "buildup"})
	step(Event{Layer: LayerTCP, Kind: KindCwnd, Flow: testFlow, Seq: 2920, N: 14600, Note: "fast-recovery"})
	step(Event{Layer: LayerFabric, Kind: KindEnqueue, Flow: testFlow, Seq: 5840, N: 4380})

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

// TestRegistryLabels verifies shared families: the same (name, label)
// child is one counter across callers, and re-registration with a
// different shape panics.
func TestRegistryLabels(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{})
	a := k.Reg().CounterL("f_total", "h", "reason", "x")
	b := k.Reg().CounterL("f_total", "h", "reason", "x")
	if a != b {
		t.Fatal("same labeled child should be shared")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared child lost an increment")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering f_total as a gauge should panic")
		}
	}()
	k.Reg().Gauge("f_total", "h")
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

// BenchmarkDisabledEvent measures the disabled-telemetry cost on the hot
// path (should be ~1ns: one nil check).
func BenchmarkDisabledEvent(b *testing.B) {
	var k *Sink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Event(Event{Layer: LayerCore, Kind: KindFlush, Seq: uint32(i)})
	}
}

// BenchmarkEnabledEvent measures the recording cost with telemetry on.
func BenchmarkEnabledEvent(b *testing.B) {
	s := sim.New(1)
	k := New(s, Options{EventCap: 1 << 12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Event(Event{Layer: LayerCore, Kind: KindFlush, Seq: uint32(i)})
	}
}
