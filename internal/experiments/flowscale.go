package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/sweep"
	"juggler/internal/units"
)

// flowScale exercises the flow-scale datapath: one gro_table tracking
// 1k/10k/100k concurrent flows, every one of them reordering. Per-flow
// state at this scale is exactly what the open-addressing table, the
// entry/segment free lists and the deadline-queue timeout expiry exist
// for: per-packet work must stay flat as the flow count grows three
// orders of magnitude (the wall-clock side of that claim is measured by
// BenchmarkFlowScale and the bench/ rx-flowscale workload; this table
// reports the deterministic behaviour counters).
//
// Workload, per flow: a fixed round schedule, one MSS packet per round.
// ~25% of packets are deferred by two rounds (a 2-interval hole, filled
// before ofo_timeout: the merge-and-recycle path), and ~2% are dropped
// outright (permanent holes: ofo expiry, loss recovery). Byte
// conservation is asserted at teardown.

// flowScaleResult carries one concurrency point's deterministic counters —
// the raw material for the flowscale table row.
type flowScaleResult struct {
	Flows           int
	Sent, Delivered int
	ActiveMax       int
	BufMax          int
	Stats           core.Stats
	Counters        gro.Counters
}

// flowScaleTuple is flow f's five-tuple in the flow-scale workload.
func flowScaleTuple(f int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: uint32(f/65000) + 1, DstIP: 9,
		SrcPort: uint16(f % 65000), DstPort: 5001, Proto: packet.ProtoTCP,
	}
}

// flowScaleFates is the flow-scale workload's per-flow fate schedule,
// shared by flowscale and shardedrx.
type flowScaleFates struct {
	rounds  int
	lateDue []int // round+1 a deferred packet arrives (0: none)
	lateSeq []uint32
}

func newFlowScaleFates(flows, rounds int) *flowScaleFates {
	return &flowScaleFates{rounds: rounds,
		lateDue: make([]int, flows), lateSeq: make([]uint32, flows)}
}

// round draws round r's fates from rng, flow by flow, and calls send for
// every packet that arrives in the round: first a packet deferred to it,
// then the round's own packet unless that is dropped (~2%: a permanent
// hole, cleared only by ofo expiry) or deferred two rounds (~25%: a hole
// filled before ofo_timeout). The last two rounds drop and defer nothing;
// last marks the final round's packets.
func (fs *flowScaleFates) round(rng *rand.Rand, r int, send func(f int, seq uint32, last bool)) {
	for f := range fs.lateDue {
		if fs.lateDue[f] == r+1 {
			fs.lateDue[f] = 0
			send(f, fs.lateSeq[f], false)
		}
		d := rng.Intn(100)
		switch {
		case d < 2 && r < fs.rounds-2:
			// Dropped.
		case d < 27 && r < fs.rounds-2:
			fs.lateDue[f] = r + 2 + 1
			fs.lateSeq[f] = uint32(r)
		default:
			send(f, uint32(r), r == fs.rounds-1)
		}
	}
}

// runFlowScalePoint drives the flow-scale workload at one concurrency
// point.
func runFlowScalePoint(o Options, flows, rounds int) flowScaleResult {
	const interval = 20 * time.Microsecond

	s := o.newSim()
	pool := packet.SegPoolFromSim(s)
	cfg := core.Config{
		InseqTimeout: 15 * time.Microsecond,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     flows,
	}
	delivered := 0
	j := core.New(s, cfg, func(seg *packet.Segment) {
		delivered += seg.Bytes
		pool.Put(seg)
	})

	poll := sim.NewTicker(s, 10*time.Microsecond, j.PollComplete)
	activeMax, bufMax := 0, 0
	sample := sim.NewTicker(s, 50*time.Microsecond, func() {
		if n := j.ActiveLen(); n > activeMax {
			activeMax = n
		}
		if b := j.BufferedBytes(); b > bufMax {
			bufMax = b
		}
	})
	poll.Start()
	sample.Start()

	rng := s.Rand()
	sent := 0
	fates := newFlowScaleFates(flows, rounds)
	send := func(f int, seq uint32, last bool) {
		ft := flowScaleTuple(f)
		p := packet.Packet{
			Flow: ft, FlowHash: ft.Hash(0),
			Seq: 1 + seq*units.MSS, PayloadLen: units.MSS,
			Flags: packet.FlagACK,
		}
		if last {
			p.Flags |= packet.FlagPSH
		}
		sent += p.PayloadLen
		j.Receive(&p)
	}
	for r := 0; r < rounds; r++ {
		r := r
		s.Schedule(time.Duration(r)*interval, func() { fates.round(rng, r, send) })
	}
	s.RunFor(time.Duration(rounds)*interval + time.Millisecond)
	poll.Stop()
	sample.Stop()
	j.Flush()

	return flowScaleResult{
		Flows: flows, Sent: sent, Delivered: delivered,
		ActiveMax: activeMax, BufMax: bufMax,
		Stats: j.Stats, Counters: j.Counters(),
	}
}

func flowScale(o Options) *Table {
	t := &Table{
		ID:    "flowscale",
		Title: "flow-scale datapath: reordered flows at 1k/10k/100k concurrency",
		Columns: []string{"flows", "pkts", "flush_event", "flush_inseq", "flush_ofo",
			"ofo_timeouts", "loss_entered", "ooo_work_per_pkt", "active_max", "buffered_KB_max"},
	}
	scales := []int{1000, 10000, 100000}
	rounds := 16
	if o.Quick {
		scales = []int{500, 2000, 10000}
		rounds = 8
	}

	for _, row := range sweep.Map(o.Workers, len(scales), func(pi int) []string {
		flows, po := scales[pi], o.point(pi, len(scales))
		res := runFlowScalePoint(po, flows, rounds)
		if res.Delivered != res.Sent {
			panic(fmt.Sprintf("flowscale: delivered %d of %d bytes", res.Delivered, res.Sent))
		}
		st, c := res.Stats, res.Counters
		return []string{fI(int64(flows)), fI(c.Packets), fI(st.FlushEvent),
			fI(st.FlushInseqTimeout), fI(st.FlushOfoTimeout), fI(st.OfoTimeouts),
			fI(st.LossRecoveryEntered), fF(float64(c.OOOWork) / float64(c.Packets)),
			fI(int64(res.ActiveMax)), fmt.Sprintf("%d", res.BufMax/1024)}
	}) {
		t.Add(row...)
	}
	t.Note("per-packet cost is flat across three orders of magnitude of concurrency: lookup is one open-addressing probe on the NIC-stamped hash, expiry pops only due flows from the deadline queue, and flow/segment churn recycles through free lists (0 steady-state allocs; BenchmarkFlowScale measures the ns/pkt scaling)")
	return t
}

func init() {
	register("flowscale", entry{run: flowScale, desc: "flow-scale datapath at 1k/10k/100k concurrent reordered flows"})
}
