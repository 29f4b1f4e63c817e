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
	"juggler/internal/testbed"
	"juggler/internal/units"
)

func init() {
	// The §4 claim that Juggler's "design principles hold for other
	// transports such as SCTP that impose packet order": a
	// message-oriented transport (internal/msgt) streams fixed-size
	// records through the Figure-11 reordering apparatus. Because records
	// map onto byte sequence numbers, the *unchanged* Juggler layer
	// reassembles and batches them — and the vanilla stack misreads the
	// reordering as loss, exactly as it does for TCP.
	register("ext-sctp", entry{
		desc:    "SCTP-style message transport through Juggler",
		title:   "Extension: message transport (SCTP-style) through the offload layer",
		columns: []string{"stack", "reorder_us", "goodput_Gbps", "ooo_frac", "spurious_retrans", "batching_MTUs"},
		notes:   []string{"no transport-specific code in Juggler: records ride the same byte-sequence machinery as TCP segments; msgt's fixed window has no congestion response, so vanilla's damage shows as 50% OOO, spurious retransmissions and a 30x batching collapse rather than lost goodput"},
		shape:   sctpShape,
		fill:    rows(fixed(grid(stacks, us(0, 500))...), sctpRow),
	})
}

// sctpRow streams records at reordering tau through a receiver of the
// given kind.
func sctpRow(o Options, p pair[testbed.OffloadKind, time.Duration]) []string {
	kind, tau := p.a, p.b
	s := o.newSim()
	flow := packet.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 9000, DstPort: 9001, Proto: 132}

	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	var rcv *msgt.Receiver
	makeOffload := func(int) gro.Offload {
		deliver := func(seg *packet.Segment) { rcv.OnSegment(seg) }
		if kind == testbed.OffloadJuggler {
			return core.New(s, jugglerAt(units.Rate10G, tau+200*time.Microsecond), deliver)
		}
		return gro.NewVanilla(deliver)
	}
	rx := nic.NewRX(s, nic.DefaultRXConfig(), cpu, makeOffload)

	// Forward path: sender port -> delay switch -> port -> receiver NIC.
	toRX := fabric.NewPort(s, "fpga->rcv", units.Rate10G, time.Microsecond, fabric.NewDropTail(0), rx)
	ds := fabric.NewDelaySwitch(s, tau, toRX)
	sndPort := fabric.NewPort(s, "snd", units.Rate10G, time.Microsecond, fabric.NewDropTail(0), ds)

	snd := msgt.NewSender(s, flow, 1024, sndPort.Send)
	// ACKs return directly with a small propagation delay.
	rcv = msgt.NewReceiver(s, flow, func(ack uint32) {
		s.Schedule(20*time.Microsecond, func() { snd.OnAck(ack) })
	})
	snd.Start()

	t := measure(o, s, 20*time.Millisecond, 100*time.Millisecond, &watch{msgRcv: rcv, msgSnd: snd, rx: rx})[0]
	return []string{kind.String(), fDurUs(tau), fGbps(t.tput()), fF(frac(t.OOO, t.Segs)), fI(t.Retrans),
		fF(frac(t.Offload.Packets, t.Offload.Segments))}
}
