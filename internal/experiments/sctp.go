package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/msgt"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sweep"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// extSCTP demonstrates the §4 claim that Juggler's "design principles hold
// for other transports such as SCTP that impose packet order": a
// message-oriented transport (internal/msgt) streams fixed-size records
// through the Figure-11 reordering apparatus. Because records map onto
// byte sequence numbers, the *unchanged* Juggler layer reassembles and
// batches them — and the vanilla stack misreads the reordering as loss,
// exactly as it does for TCP.
func extSCTP(o Options) *Table {
	t := &Table{
		ID:    "ext-sctp",
		Title: "Extension: message transport (SCTP-style) through the offload layer",
		Columns: []string{"stack", "reorder_us", "goodput_Gbps", "ooo_frac",
			"spurious_retrans", "batching_MTUs"},
	}
	type point struct {
		kind testbed.OffloadKind
		tau  time.Duration
	}
	var pts []point
	for _, kind := range []testbed.OffloadKind{testbed.OffloadVanilla, testbed.OffloadJuggler} {
		for _, tau := range []time.Duration{0, 500 * time.Microsecond} {
			pts = append(pts, point{kind, tau})
		}
	}
	for _, row := range sweep.Map(o.Workers, len(pts), func(i int) []string {
		p := pts[i]
		goodput, ooo, retrans, batching := sctpRun(o.point(i, len(pts)), p.kind, p.tau)
		return []string{p.kind.String(), fDurUs(p.tau), fGbps(goodput), fF(ooo),
			fI(retrans), fF(batching)}
	}) {
		t.Add(row...)
	}
	t.Note("no transport-specific code in Juggler: records ride the same byte-sequence machinery as TCP segments; msgt's fixed window has no congestion response, so vanilla's damage shows as 50%% OOO, spurious retransmissions and a 30x batching collapse rather than lost goodput")
	return t
}

func sctpRun(o Options, kind testbed.OffloadKind, tau time.Duration) (goodput, ooo float64, retrans int64, batching float64) {
	s := o.newSim()
	flow := packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 9000, DstPort: 9001, Proto: 132}

	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	var rcv *msgt.Receiver
	makeOffload := func(int) gro.Offload {
		deliver := func(seg *packet.Segment) { rcv.OnSegment(seg) }
		if kind == testbed.OffloadJuggler {
			cfg := core.DefaultConfig()
			cfg.InseqTimeout = 52 * time.Microsecond
			cfg.OfoTimeout = tau + 200*time.Microsecond
			return core.New(s, cfg, deliver)
		}
		return gro.NewVanilla(deliver)
	}
	rx := nic.NewRX(s, nic.DefaultRXConfig(), cpu, makeOffload)

	// Forward path: sender port -> delay switch -> port -> receiver NIC.
	toRX := fabric.NewPort(s, "fpga->rcv", units.Rate10G, time.Microsecond, fabric.NewDropTail(0), rx)
	ds := fabric.NewDelaySwitch(s, tau, toRX)
	sndPort := fabric.NewPort(s, "snd", units.Rate10G, time.Microsecond, fabric.NewDropTail(0), ds)

	var snd *msgt.Sender
	snd = msgt.NewSender(s, flow, 1024, sndPort.Send)
	// ACKs return directly with a small propagation delay.
	rcv = msgt.NewReceiver(s, flow, func(ack uint32) {
		s.Schedule(20*time.Microsecond, func() { snd.OnAck(ack) })
	})
	snd.Start()

	warm := o.scale(20 * time.Millisecond)
	dur := o.scale(100 * time.Millisecond)
	s.RunFor(warm)
	del0 := rcv.Delivered()
	c0 := rx.Offload(0).Counters()
	s.RunFor(dur)
	del1 := rcv.Delivered()
	c1 := rx.Offload(0).Counters()

	goodput = float64(del1-del0) * msgt.RecordSize * 8 / dur.Seconds()
	if rcv.Stats.SegmentsIn > 0 {
		ooo = float64(rcv.Stats.OOOSegments) / float64(rcv.Stats.SegmentsIn)
	}
	retrans = snd.Stats.Retransmits
	if segs := c1.Segments - c0.Segments; segs > 0 {
		batching = float64(c1.Packets-c0.Packets) / float64(segs)
	}
	return
}

func init() {
	register("ext-sctp", entry{run: extSCTP, desc: "SCTP-style message transport through Juggler", shape: sctpShape})
}
