package juggler

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"juggler/internal/chaos"
	"juggler/internal/experiments"
	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// TestNoStrayRandomness enforces the repo's bit-reproducibility contract:
// every stochastic decision must draw from the per-run source handed out
// by sim.Rand(). Constructing a new rand source or calling the global
// math/rand functions anywhere else would silently break same-seed
// reproducibility — the property the chaos checker, the experiment tables
// and the CLI repro workflow all depend on.
//
// Non-test sources outside internal/sim may mention *rand.Rand as a type
// (components receive the shared source as a parameter or field); what
// they may not do is mint or seed one, call the global process-wide
// functions, or import math/rand/v2 (whose global state is per-process,
// not per-simulation).
func TestNoStrayRandomness(t *testing.T) {
	// Call sites only: each pattern requires the opening parenthesis, so
	// type references like `rng *rand.Rand` stay legal.
	forbidden := regexp.MustCompile(`\brand\.(NewSource|New|Seed|Int63n|Int63|Int31n|Int31|Intn|Int|Uint32|Uint64|Float64|Float32|Perm|Shuffle|ExpFloat64|NormFloat64)\s*\(`)
	v2import := regexp.MustCompile(`"math/rand/v2"`)

	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case d.Name() == ".git":
				return filepath.SkipDir
			case filepath.ToSlash(path) == "internal/sim":
				// The one place allowed to own a rand source: sim.New seeds
				// it, sim.Rand hands it out.
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := forbidden.FindString(line); m != "" {
				t.Errorf("%s:%d: %q — draw from sim.Rand() instead of minting or calling global math/rand state", path, i+1, m)
			}
			if v2import.MatchString(line) {
				t.Errorf("%s:%d: math/rand/v2 import — its global state is per-process, not per-simulation; use sim.Rand()", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryExportsDeterministic is the end-to-end counterpart of the
// randomness lint above: two identically-seeded runs through the public
// apparatus must export byte-identical telemetry artifacts — the Perfetto
// trace, the pcapng capture, and the metrics snapshot. Any hidden
// nondeterminism (map iteration in an exporter, wall-clock timestamps, a
// stray rand source) shows up here as a byte diff.
func TestTelemetryExportsDeterministic(t *testing.T) {
	run := func() (trace, pcap, prom []byte) {
		p := NewReorderPair(ReorderPairConfig{
			Seed:         7,
			ReorderDelay: 250 * time.Microsecond,
			DropProb:     0.001,
			Telemetry:    true,
		})
		p.AddBulkFlow(0)
		p.Run(10 * time.Millisecond)
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
		return tb.Bytes(), pb.Bytes(), mb.Bytes()
	}

	t1, p1, m1 := run()
	t2, p2, m2 := run()
	if len(t1) == 0 || len(p1) == 0 || len(m1) == 0 {
		t.Fatalf("empty export: trace=%d pcap=%d metrics=%d bytes", len(t1), len(p1), len(m1))
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("trace-event JSON differs between identically-seeded runs (%d vs %d bytes)", len(t1), len(t2))
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("pcapng capture differs between identically-seeded runs (%d vs %d bytes)", len(p1), len(p2))
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshot differs between identically-seeded runs (%d vs %d bytes)", len(m1), len(m2))
	}
}

// TestParallelSweepDeterministic is the internal/sweep contract checked end
// to end: running a sweeping experiment on 8 workers must produce the same
// bytes as the serial run — the rendered table AND the telemetry artifacts
// exported from the designated traced point. fig6 is the probe because it
// both sweeps (so points really interleave under -j) and attaches the
// telemetry sink. Two seeds guard against a coincidentally stable schedule.
func TestParallelSweepDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		run := func(workers int) (table, trace, pcap, prom []byte) {
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
			return tb.Bytes(), tr.Bytes(), pc.Bytes(), mb.Bytes()
		}

		st, str, spc, spm := run(1)
		pt, ptr, ppc, ppm := run(8)
		if len(st) == 0 || len(str) == 0 || len(spc) == 0 || len(spm) == 0 {
			t.Fatalf("seed %d: empty serial output: table=%d trace=%d pcap=%d metrics=%d bytes",
				seed, len(st), len(str), len(spc), len(spm))
		}
		if !bytes.Equal(st, pt) {
			t.Errorf("seed %d: table differs between -j 1 and -j 8:\n--- serial ---\n%s--- parallel ---\n%s", seed, st, pt)
		}
		if !bytes.Equal(str, ptr) {
			t.Errorf("seed %d: trace-event JSON differs between -j 1 and -j 8 (%d vs %d bytes)", seed, len(str), len(ptr))
		}
		if !bytes.Equal(spc, ppc) {
			t.Errorf("seed %d: pcapng capture differs between -j 1 and -j 8 (%d vs %d bytes)", seed, len(spc), len(ppc))
		}
		if !bytes.Equal(spm, ppm) {
			t.Errorf("seed %d: metrics snapshot differs between -j 1 and -j 8 (%d vs %d bytes)", seed, len(spm), len(ppm))
		}
	}
}

// engineRun is one frozen-simulation fingerprint: everything in it is a
// function of the (at, seq) order in which the event engine executes, so a
// change to internal/sim or to how a component schedules its events either
// reproduces these numbers exactly or has changed the simulation.
type engineRun struct {
	Name     string       `json:"name"`
	Executed uint64       `json:"executed"`
	Pending  int          `json:"pending"`
	Flows    []engineFlow `json:"flows"`
	Msgs     int          `json:"msgs"`
	MsgP50Ns int64        `json:"msg_p50_ns"`
	MsgP99Ns int64        `json:"msg_p99_ns"`
	Steps    []string     `json:"steps,omitempty"`
}

type engineFlow struct {
	Delivered   int64 `json:"delivered"`
	Segments    int64 `json:"segments"`
	Retransmits int64 `json:"retransmits"`
	RTOs        int64 `json:"rtos"`
}

// engineProbe collects the per-flow counters and message latencies of one
// run.
type engineProbe struct {
	snds []*tcp.Sender
	rcvs []*tcp.Receiver
	lat  []int64
}

func (p *engineProbe) connect(a, b *testbed.Host, cfg tcp.SenderConfig) (*tcp.Sender, *tcp.Receiver) {
	snd, rcv := testbed.Connect(a, b, cfg)
	p.snds = append(p.snds, snd)
	p.rcvs = append(p.rcvs, rcv)
	return snd, rcv
}

func (p *engineProbe) rpc(s *sim.Sim, a, b *testbed.Host, cfg tcp.SenderConfig) *workload.RPCStream {
	snd, rcv := p.connect(a, b, cfg)
	st := workload.NewRPCStream(s, snd, rcv, nil)
	st.OnLatency = func(d time.Duration) { p.lat = append(p.lat, int64(d)) }
	return st
}

func (p *engineProbe) print(name string, s *sim.Sim, steps []string) engineRun {
	r := engineRun{Name: name, Executed: s.Executed, Pending: s.Pending(), Msgs: len(p.lat), Steps: steps}
	for i, snd := range p.snds {
		r.Flows = append(r.Flows, engineFlow{
			Delivered:   p.rcvs[i].Delivered(),
			Segments:    p.rcvs[i].Stats.SegmentsIn,
			Retransmits: snd.Stats.RetransPackets,
			RTOs:        snd.Stats.Timeouts,
		})
	}
	if n := len(p.lat); n > 0 {
		sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
		r.MsgP50Ns = p.lat[n/2]
		r.MsgP99Ns = p.lat[n*99/100]
	}
	return r
}

// enginePair is the Figure-11 pair at tau = 250us with 1e-4 drops: one
// bulk flow plus Poisson 4KB messages.
func enginePair() engineRun {
	s := sim.New(5)
	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.Juggler.InseqTimeout = 52 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = 300 * time.Microsecond // tau + margin (§5.2.1)
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, 250*time.Microsecond, 1e-4,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvCfg)
	var p engineProbe
	// Window pinned as in the benchmark's pair-lossy, so goodput does not
	// hang on where Reno's sawtooth happened to be.
	bulk, _ := p.connect(tb.Sender, tb.Receiver, tcp.SenderConfig{MaxCwnd: 512 << 10, FixedWindow: true})
	bulk.SetInfinite()
	bulk.MaybeSend()
	gen := workload.NewPoissonRPCGen(s, []*workload.RPCStream{
		p.rpc(s, tb.Sender, tb.Receiver, tcp.SenderConfig{}),
	}, 4096, 10_000)
	gen.Start()
	s.RunFor(40 * time.Millisecond)
	return p.print("pair-tau250us-drop1e-4", s, nil)
}

// engineClos is the 6-host Clos of the fleet experiment under per-packet
// spraying: three sender/receiver pairs across two ToRs, a bulk flow and
// a Poisson message stream per pair.
func engineClos() engineRun {
	s := sim.New(5)
	tb := testbed.NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond, QueueBytes: 2 * units.MB,
		UplinkLB: lb.NewPerPacket(s, true),
	})
	hostCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	const pairs = 3
	var snd, rcv [pairs]*testbed.Host
	for i := range snd {
		snd[i] = tb.AddHost(0, hostCfg)
	}
	for i := range rcv {
		rcv[i] = tb.AddHost(1, hostCfg)
	}
	var p engineProbe
	scfg := tcp.SenderConfig{MaxCwnd: 256 * units.KB}
	var streams []*workload.RPCStream
	for i := 0; i < pairs; i++ {
		bulk, _ := p.connect(snd[i], rcv[i], scfg)
		bulk.SetInfinite()
		bulk.MaybeSend()
		streams = append(streams, p.rpc(s, snd[i], rcv[i], scfg))
	}
	gen := workload.NewPoissonRPCGen(s, streams, 4096, 20_000)
	gen.MaxOutstanding = 8
	gen.Start()
	s.RunFor(5 * time.Millisecond)
	return p.print("clos6-spray", s, nil)
}

// engineChaos drives four paced finite transfers through a chaos reorderer
// and duplicator while the receiver's link flaps and its RX queue is
// paused: Port.SetDown, the RTO/TLP/pacing timer cancels and the
// coalescing timer all fire, and the run must drain to an empty queue.
func engineChaos() engineRun {
	const (
		rate = units.Rate10G
		prop = 200 * time.Nanosecond
	)
	s := sim.New(5)
	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.LinkRate = rate
	rcvCfg.Juggler.InseqTimeout = 52 * time.Microsecond
	rcvCfg.Juggler.OfoTimeout = 550 * time.Microsecond
	sndCfg := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	sndCfg.LinkRate = rate
	rcv := testbed.NewHost(s, "receiver", rcvCfg)
	snd := testbed.NewHost(s, "sender", sndCfg)
	snd.IP, rcv.IP = 0x0a000001, 0x0a000002

	toReceiver := fabric.NewPort(s, "chaos->rcv", rate, prop, fabric.NewDropTail(0), rcv.Sink())
	dup := chaos.NewDuplicator(s, 0.02, 200*time.Microsecond, toReceiver)
	snd.ConnectEgress(chaos.NewReorderer(s, 0.15, 250*time.Microsecond, dup), prop)
	rcv.ConnectEgress(fabric.NewPort(s, "rcv->snd", rate, prop, fabric.NewDropTail(0), snd.Sink()), 0)

	sc := chaos.NewScenario("flap+pause")
	sc.FlapLink(2*time.Millisecond, toReceiver, time.Millisecond)
	sc.PauseQueue(6*time.Millisecond, rcv.RX, 0, 1500*time.Microsecond)
	sc.Install(s)

	var p engineProbe
	const flows = 4
	for i := 0; i < flows; i++ {
		fsnd, _ := p.connect(snd, rcv, tcp.SenderConfig{PaceRate: rate / (flows + 1)})
		fsnd.Write(2*units.MB, true)
	}
	s.RunFor(200 * time.Millisecond)
	return p.print("chaos-flap-pause", s, sc.Log())
}

// TestEngineGolden freezes three short same-seed simulations against
// testdata/engine_golden.json, generated before the event engine was
// rebuilt (ISSUE 13). It passes only while every event still executes in
// the same (at, seq) order; regenerate with UPDATE_GOLDEN=1 only for a
// change that is meant to alter the simulation.
func TestEngineGolden(t *testing.T) {
	runs := []engineRun{enginePair(), engineClos(), engineChaos()}
	for _, r := range runs {
		var delivered int64
		for _, f := range r.Flows {
			delivered += f.Delivered
		}
		if r.Executed == 0 || delivered == 0 || r.Msgs == 0 && r.Steps == nil {
			t.Fatalf("%s: degenerate run: %+v", r.Name, r)
		}
	}
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "engine_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("engine fingerprint drifted from %s: the event order changed\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
