package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"juggler/internal/core"
	"juggler/internal/fabric"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// The traced pass. Layers are measured from outside: a capture of what
// crossed each receiver's ingress is replayed, at its captured times,
// through a ladder of ever taller stacks built only from the layers'
// exported constructors, and a layer's self time is its rung minus the
// rung below. sim and fabric, which the ladder cannot isolate, get
// drivers of their own.

// traceScale shrinks the traced pass's windows so the ladder (seven rungs,
// five repetitions each) fits the same budget as the untraced pass.
const traceScale = 0.4

// traceReps is how many untapped and how many tapped repetitions the
// traced pass interleaves after the untimed first of each.
const traceReps = 3

// wireHdr is the part of a packet the receive path looks at, small enough
// to keep a million of them.
type wireHdr struct {
	flow           packet.FiveTuple
	seq, ack       uint32
	optSig         uint32
	sackLo, sackHi uint32
	payload        uint16
	flowID         uint16 // the flow's value in capture.flow
	rcv            uint8  // which receiver's ingress
	flags          packet.Flags
	prio           packet.Priority
	ce             bool
}

func (h *wireHdr) fill(p *packet.Packet) {
	p.Flow, p.Seq, p.AckSeq, p.OptSig = h.flow, h.seq, h.ack, h.optSig
	p.SACKStart, p.SACKEnd = h.sackLo, h.sackHi
	p.PayloadLen, p.Flags, p.Priority, p.CE = int(h.payload), h.flags, h.prio, h.ce
}

// capture is the boundary tap of a traced repetition: packets at each
// receiver's ingress (time and header, in arrival order) and crossing
// counts at the offload-to-host and host-to-TCP boundaries. A nil
// *capture taps nothing, which is how the untraced pass runs.
type capture struct {
	s    *sim.Sim
	at   []sim.Time
	hdr  []wireHdr
	flow map[packet.FiveTuple]uint16

	segsUp, delivered int64 // SegmentTap and DeliverTap crossings

	// What the replay needs to rebuild a receiver, noted by the builder.
	slice     time.Duration // virtual time per step of the tapped run
	receivers int
	rate      units.BitRate
	rx        nic.RXConfig
	juggler   core.Config
}

func (c *capture) reset() {
	*c = capture{at: c.at[:0], hdr: c.hdr[:0], flow: map[packet.FiveTuple]uint16{}}
}

// wrap interposes the ingress tap in front of receiver rcv's sink.
func (c *capture) wrap(rcv int, dst fabric.Sink) fabric.Sink {
	if c == nil {
		return dst
	}
	return fabric.SinkFunc(func(p *packet.Packet) {
		id, ok := c.flow[p.Flow]
		if !ok {
			id = uint16(len(c.flow))
			c.flow[p.Flow] = id
		}
		c.at = append(c.at, c.s.Now())
		c.hdr = append(c.hdr, wireHdr{
			flow: p.Flow, seq: p.Seq, ack: p.AckSeq, optSig: p.OptSig,
			sackLo: p.SACKStart, sackHi: p.SACKEnd,
			payload: uint16(p.PayloadLen), flowID: id, rcv: uint8(rcv),
			flags: p.Flags, prio: p.Priority, ce: p.CE,
		})
		dst.Deliver(p)
	})
}

// attach notes a receiver's construction parameters and counts the two
// boundaries above the offload layer.
func (c *capture) attach(r *tcpRun, h *testbed.Host, cfg testbed.HostConfig) {
	if c == nil {
		return
	}
	c.s, c.slice = r.s, r.slice
	c.receivers++
	c.rate, c.rx, c.juggler = cfg.LinkRate, cfg.RX, cfg.Juggler
	h.SegmentTap = func(*packet.Segment) { c.segsUp++ }
	h.DeliverTap = func(*packet.Segment) { c.delivered++ }
}

// span is one entry of the span log written to out/trace.json.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the process started
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"` // packets the span covered
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(parent int, name, workload string, start, end time.Time, count int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, workload,
		start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds(), count})
	return id
}

// open starts a span that close ends; count is known up front.
func (l *spanLog) open(parent int, name, workload string, count int64) int {
	now := time.Now()
	return l.add(parent, name, workload, now, now, count)
}

func (l *spanLog) close(id int) { l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds() }

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// lists the same names and bench_test.go holds the two together.
var layerUnits = map[string]string{
	"sim.ns_per_event": "ns", "sim.pending_mean": "count", "sim.replay_ns_per_pkt": "ns",
	"fabric.hops_per_pkt": "count", "fabric.ns_per_hop": "ns", "fabric.drops_per_mpkt": "count",
	"nic.ns_per_pkt": "ns", "nic.allocs_per_pkt": "count", "nic.pkts_per_poll": "count",
	"gro.null_ns_per_pkt": "ns", "gro.vanilla_ns_per_pkt": "ns",
	"core.ns_per_pkt": "ns", "core.allocs_per_pkt": "count", "core.ooo_in_frac": "ratio",
	"core.mtus_per_seg": "count", "core.flush_event_frac": "ratio", "core.flush_inseq_frac": "ratio",
	"core.flush_ofo_frac": "ratio", "core.evictions_per_mpkt": "count",
	"core.table_flows_peak": "count", "core.buffered_kb_peak": "KiB",
	"reasm.ns_per_insert": "ns", "reasm.inserts_per_pkt": "count", "reasm.merged_frac": "ratio",
	"tcp.rx_ns_per_seg": "ns", "tcp.rx_allocs_per_seg": "count", "tcp.segs_per_pkt": "count",
	"tcp.ooo_seg_frac": "ratio", "tcp.acks_per_pkt": "count", "tcp.retrans_per_mpkt": "count",
	"tcp.rto_count":         "count",
	"cpumodel.rx_core_util": "ratio", "cpumodel.app_core_util": "ratio",
	"telemetry.full_ns_per_pkt": "ns", "telemetry.sampled32_ns_per_pkt": "ns", "telemetry.export_s": "s",
	"harness.unattributed_frac": "ratio", "harness.rep_spread_frac": "ratio",
	"harness.trace_overhead_frac": "ratio", "harness.gc_cycles_per_mpkt": "count",
	"harness.gc_cpu_frac": "ratio",
}

// traced is a workload's traced outcome.
type traced struct {
	workload string
	metrics  map[string]metric
	ops      int64
	failed   int64
	errs     []string
	info     []string // printed lines that are not metrics
}

// newTraced starts a traced outcome from its repetitions: the correctness
// gate over all of them, every metric preset to zero (a layer the
// workload does not have reports nothing done), then the counts read from
// the layers' exported stats over rep's window and the harness rows from
// the untapped repetitions.
func newTraced(name string, reps []rep, rp *rep, untapped []rep) *traced {
	all := summarize(name, reps)
	t := &traced{workload: name, ops: all.ops, failed: all.failed, errs: all.errs,
		metrics: map[string]metric{}}
	for n := range layerUnits {
		t.set(n, 0)
	}

	l0, l := rp.l0, rp.l1
	pkts := float64(rp.d.pkts)
	per := func(a, b int64) float64 { return float64(a-b) / pkts }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t.set("fabric.hops_per_pkt", per(l.hopPkts, l0.hopPkts))
	t.set("fabric.drops_per_mpkt", per(l.drops, l0.drops)*1e6)
	t.set("nic.pkts_per_poll", frac(pkts, float64(l.polls-l0.polls)))
	t.set("core.mtus_per_seg", frac(pkts, float64(l.gro.Segments-l0.gro.Segments)))
	t.set("reasm.inserts_per_pkt", per(l.gro.OOOWork, l0.gro.OOOWork))
	t.set("reasm.merged_frac", per(l.gro.MergedPkts, l0.gro.MergedPkts))
	cs, cs0 := l.core, l0.core
	flushes := float64(cs.FlushEvent + cs.FlushInseqTimeout + cs.FlushOfoTimeout + cs.FlushEvict -
		cs0.FlushEvent - cs0.FlushInseqTimeout - cs0.FlushOfoTimeout - cs0.FlushEvict)
	t.set("core.flush_event_frac", frac(float64(cs.FlushEvent-cs0.FlushEvent), flushes))
	t.set("core.flush_inseq_frac", frac(float64(cs.FlushInseqTimeout-cs0.FlushInseqTimeout), flushes))
	t.set("core.flush_ofo_frac", frac(float64(cs.FlushOfoTimeout-cs0.FlushOfoTimeout), flushes))
	t.set("core.evictions_per_mpkt", per(cs.EvictionsInactive+cs.EvictionsActive+cs.EvictionsLoss,
		cs0.EvictionsInactive+cs0.EvictionsActive+cs0.EvictionsLoss)*1e6)
	segsIn := float64(l.segsIn - l0.segsIn)
	t.set("tcp.segs_per_pkt", segsIn/pkts)
	t.set("tcp.ooo_seg_frac", frac(float64(l.oooSegs-l0.oooSegs), segsIn))
	t.set("tcp.acks_per_pkt", per(l.acks, l0.acks))
	t.set("tcp.retrans_per_mpkt", per(l.retrans, l0.retrans)*1e6)
	t.set("tcp.rto_count", float64(l.rtos-l0.rtos))
	coreTime := float64(rp.vwindow) * float64(l.cpuCores)
	t.set("cpumodel.rx_core_util", frac(float64(l.rxBusy-l0.rxBusy), coreTime))
	t.set("cpumodel.app_core_util", frac(float64(l.appBusy-l0.appBusy), coreTime))

	var walls, cycles, gc []float64
	for i := range untapped {
		r := &untapped[i]
		walls = append(walls, sum(r.window))
		cycles = append(cycles, r.perPkt(float64(r.gcCycles))*1e6)
		gc = append(gc, r.gcCPUs/(r.rawWindow/1e9))
	}
	q1, q3 := quartiles(walls)
	t.set("harness.rep_spread_frac", (q3-q1)/q1)
	t.set("harness.gc_cycles_per_mpkt", median(cycles))
	t.set("harness.gc_cpu_frac", median(gc))
	return t
}

func (t *traced) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in layerUnits")
	}
	t.metrics[name] = metric{v, unit}
}

// sliceGauges samples the gauges the exported stats only offer as
// instantaneous values, once per timed slice.
type sliceGauges struct {
	ends                    []time.Time
	pkts                    []int64
	pending                 float64
	peakFlows, peakBuffered int
}

func (sp *sliceGauges) observe(in instance) {
	l := in.layers()
	sp.pending += float64(l.pending)
	sp.peakFlows, sp.peakBuffered = max(sp.peakFlows, l.tableFlows), max(sp.peakBuffered, l.bufferedB)
	sp.ends = append(sp.ends, time.Now())
	sp.pkts = append(sp.pkts, l.gro.Packets)
}

func (sp *sliceGauges) pendingMean() float64 { return sp.pending / float64(len(sp.ends)) }

// spans logs the probed repetition and each of its slices.
func (sp *sliceGauges) spans(log *spanLog, parent int, name string, r *rep) {
	id := log.add(parent, "window", name, r.windowAt, r.windowEnd, r.d.pkts)
	prev := r.l0.gro.Packets
	for k, end := range sp.ends {
		log.add(id, "slice", name, end.Add(-time.Duration(r.window[k])), end, sp.pkts[k]-prev)
		prev = sp.pkts[k]
	}
}

func (t *traced) setProbe(sp *sliceGauges, z sizing) {
	t.set("sim.pending_mean", sp.pendingMean())
	t.set("sim.ns_per_event", simCost(int(sp.pendingMean()+0.5), z.driverEvents()).ns)
	t.set("core.table_flows_peak", float64(sp.peakFlows))
	t.set("core.buffered_kb_peak", float64(sp.peakBuffered)/1024)
}

// runTraced is the traced pass over one workload.
func runTraced(w spec, seed int64, z sizing, log *spanLog) *traced {
	z.scale *= traceScale
	rootID := log.open(0, "traced", w.name, 0)
	defer log.close(rootID)
	return w.trace(w, seed, z, log, rootID)
}

// traceTCP is the traced pass over a workload with a wire to capture.
func traceTCP(w spec, seed int64, z sizing, log *spanLog, rootID int) *traced {
	// Untapped and tapped repetitions, interleaved; index 0 of each is
	// the untimed one. The last tapped repetition is the capture the
	// ladder replays, and its slices become spans.
	c := &capture{}
	var sp sliceGauges
	var refs, taps []rep
	for i := 0; i <= traceReps; i++ {
		refs = append(refs, measure(w, seed, z, nil, nil))
		c.reset()
		sp = sliceGauges{}
		taps = append(taps, measure(w, seed, z, c, sp.observe))
	}
	reps := append(append([]rep(nil), refs...), taps...)
	for i := range reps {
		name := "rep/untapped"
		if i >= len(refs) {
			name = "rep/tapped"
		}
		log.add(rootID, name, w.name, reps[i].started, reps[i].windowEnd, reps[i].d.pkts)
	}
	capRep := &taps[traceReps]
	sp.spans(log, rootID, w.name, capRep)

	t := newTraced(w.name, reps, capRep, refs[1:])
	if c.delivered > c.segsUp || c.segsUp == 0 {
		t.errs = append(t.errs, fmt.Sprintf("boundary counts: %d segments up, %d delivered", c.segsUp, c.delivered))
	}
	t.setProbe(&sp, z)

	// The ladder.
	rg := map[string]cost{}
	var export float64
	for _, r := range ladder {
		id := log.open(rootID, "rung/"+r.name, w.name, int64(len(c.at)))
		rg[r.name] = bestOf(heapProbe, len(c.at), func(st *steps) {
			t0 := time.Now()
			sink := c.replay(r, st, nil)
			log.add(id, "rung-rep", w.name, t0, time.Now(), int64(len(c.at)))
			if r.sample == 1 && export == 0 {
				// Writes to io.Discard cannot fail; only the time matters.
				e0 := time.Now()
				_ = sink.WriteTrace(io.Discard)
				_ = sink.WritePcap(io.Discard)
				_ = sink.Reg().WriteProm(io.Discard)
				export = time.Since(e0).Seconds()
			}
		})
		log.close(id)
	}
	for _, r := range ladder {
		t.info = append(t.info, fmt.Sprintf("rung %-26s %8.2f ns/pkt %7.4f allocs/pkt", r.name, rg[r.name].ns, rg[r.name].mallocs))
	}
	null := c.nullCost()
	hops := t.metrics["fabric.hops_per_pkt"].Value
	hop := fabricCost(int(hops+0.5), z.driverEvents()/8, c.rate)
	var delivered []packet.Segment
	c.replay(coreRung, &steps{p: heapProbe}, &delivered) // untimed: only the deliveries matter
	rx := c.tcpCost(delivered)

	t.set("sim.replay_ns_per_pkt", rg["sim"].ns)
	t.set("fabric.ns_per_hop", hop.ns)
	t.set("nic.ns_per_pkt", rg["nic+null"].ns-rg["sim"].ns-null.ns)
	t.set("nic.allocs_per_pkt", rg["nic+null"].mallocs-rg["sim"].mallocs)
	t.set("gro.null_ns_per_pkt", null.ns)
	t.set("gro.vanilla_ns_per_pkt", rg["nic+vanilla"].ns-rg["nic+null"].ns+null.ns)
	t.set("core.ns_per_pkt", rg["nic+core"].ns-rg["nic+null"].ns+null.ns)
	t.set("core.allocs_per_pkt", rg["nic+core"].mallocs-rg["nic+null"].mallocs)
	t.set("core.ooo_in_frac", c.oooFrac())
	t.set("reasm.ns_per_insert", c.reasmCost().ns)
	t.set("tcp.rx_ns_per_seg", rx.ns)
	t.set("tcp.rx_allocs_per_seg", rx.mallocs)
	t.set("telemetry.full_ns_per_pkt", rg["nic+core+tcp+telemetry"].ns-rg["nic+core+tcp"].ns)
	t.set("telemetry.sampled32_ns_per_pkt", rg["nic+core+tcp+telemetry/32"].ns-rg["nic+core+tcp"].ns)
	t.set("telemetry.export_s", export)

	refWall := floorSum(refs[1:], windowOf)
	t.set("harness.trace_overhead_frac", floorSum(taps[1:], windowOf)/refWall-1)
	// The ledger: the tallest untelemetered rung is sim + nic + core + tcp
	// receive; the fabric driver adds the hops. What is left is the
	// senders, the ACK path, the modelled CPU cores and the harness.
	attributed := rg["nic+core+tcp"].ns + hops*hop.ns
	t.set("harness.unattributed_frac", 1-attributed/(refWall/float64(refs[0].d.pkts)))
	return t
}

// traceFlowScale is the traced pass over rx-flowscale. There is no wire
// to capture: the ladder's rungs are the bench's own loop over
// testbed.ShardedHost with the offload swapped, so the staging loop and
// nic.ShardedRX are common to every rung and cancel in the differences.
func traceFlowScale(w spec, seed int64, z sizing, log *spanLog, rootID int) *traced {
	var sp sliceGauges
	var refs []rep
	for i := 0; i <= traceReps; i++ {
		sp = sliceGauges{}
		refs = append(refs, measure(w, seed, z, nil, sp.observe))
		log.add(rootID, "rep/untapped", w.name, refs[i].started, refs[i].windowEnd, refs[i].d.pkts)
	}
	sp.spans(log, rootID, w.name, &refs[traceReps])
	t := newTraced(w.name, refs, &refs[traceReps], refs[1:])
	t.setProbe(&sp, z)

	// rungOf runs every step of fresh instances with the given offload
	// and lane count and reports the host time per packet the offload
	// layer examined.
	rungOf := func(kind testbed.OffloadKind, lanes int, id int) cost {
		var pkts int64
		c := bestOf(w.probe, 1, func(st *steps) {
			t0 := time.Now()
			in := buildFlowScale(seed, z, kind, lanes)
			warm, timedSteps := in.steps()
			for i := 0; i < warm+timedSteps; i++ {
				st.run(in.step)
			}
			pkts = in.counts().pkts
			in.finish()
			log.add(id, "rung-rep", w.name, t0, time.Now(), pkts)
		})
		return cost{c.ns / float64(pkts), c.mallocs / float64(pkts)}
	}
	rg := map[testbed.OffloadKind]cost{}
	for _, kind := range []testbed.OffloadKind{testbed.OffloadNone, testbed.OffloadVanilla, testbed.OffloadJuggler} {
		id := log.open(rootID, "rung/sharded+"+kind.String(), w.name, 0)
		rg[kind] = rungOf(kind, 1, id)
		log.close(id)
	}
	null, vanilla, juggler := rg[testbed.OffloadNone], rg[testbed.OffloadVanilla], rg[testbed.OffloadJuggler]
	t.set("nic.ns_per_pkt", null.ns) // staging loop + nic.ShardedRX + gro.Null
	t.set("nic.allocs_per_pkt", null.mallocs)
	t.set("gro.vanilla_ns_per_pkt", vanilla.ns-null.ns)
	t.set("core.ns_per_pkt", juggler.ns-null.ns)
	t.set("core.allocs_per_pkt", juggler.mallocs-null.mallocs)
	// No capture to count arrivals in: the out-of-order inserts stand in.
	t.set("core.ooo_in_frac", t.metrics["reasm.inserts_per_pkt"].Value)
	t.set("harness.unattributed_frac", 1-juggler.ns/(floorSum(refs[1:], windowOf)/float64(refs[0].d.pkts)))

	t.info = append(t.info, shardSpeedup(runtime.NumCPU(), juggler, func() cost {
		return rungOf(testbed.OffloadJuggler, 2, rootID)
	}))
	return t
}

// shardSpeedup reports the one-lane cost over the two-lane cost, or
// declines when the box cannot run two lanes at once: a ratio measured on
// one CPU would be noise presented as a number.
func shardSpeedup(nproc int, one cost, two func() cost) string {
	if nproc < 2 {
		return "sim.shard_speedup_2 skipped (nproc < 2)"
	}
	t := two()
	return fmt.Sprintf("sim.shard_speedup_2 %.3f ratio (1 lane %.1f ns/pkt over 2 lanes %.1f ns/pkt; informational)",
		one.ns/t.ns, one.ns, t.ns)
}
