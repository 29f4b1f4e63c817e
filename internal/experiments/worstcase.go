package experiments

import (
	"fmt"
	"time"

	"juggler/internal/core"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/units"
)

func init() {
	// The §3.3 denial-of-service arithmetic: "consider an extreme case
	// where Juggler buffers 1 millisecond worth of packets per flow and
	// every received 1500B packet is from a new flow. With a 40Gb/s NIC
	// and 16 receive queues, each receive queue needs to track only about
	// 200 flows." The experiment drives exactly that adversarial stream
	// into one gro_table and measures how much state Juggler actually
	// keeps — which is far below even the worst-case bound, because a
	// single-packet flow's head is in sequence and flushes at
	// inseq_timeout, after which the flow is immediately evictable.
	register("abl-worstcase", entry{
		desc:    "§3.3 adversarial new-flow flood state bound",
		title:   "§3.3 worst case: every packet a new flow (40G / 16 RX queues)",
		columns: []string{"inseq_timeout_us", "paper_bound_flows", "active_p99", "active_max", "inactive_p99", "buffered_KB_max"},
		notes:   []string{"the paper's bound assumes every packet is held the full 1ms (the inseq=1000us row reproduces it: ~200 active); with the real 15us default, the flood needs only ~4 active entries — inactive entries are evictable on demand"},
		shape:   worstCaseShape,
		fill:    rows(fixed(us(15, 100, 1000)...), worstCaseRow),
	})
}

// worstCaseRow floods one gro_table with a new flow per packet, at one
// queue's share of 40G over 16 queues, for the given inseq_timeout.
func worstCaseRow(o Options, inseq time.Duration) []string {
	// Per-queue packet rate: 40G over 16 queues, 1500B packets.
	perQueue := 40e9 / 16 / 8 / float64(units.MTU) // packets/s
	gap := time.Duration(float64(time.Second) / perQueue)
	bound := int(perQueue * 0.001) // the paper's 1ms arithmetic (~208)

	s := o.newSim()
	cfg := core.Config{
		InseqTimeout: inseq,
		OfoTimeout:   time.Millisecond,
		MaxFlows:     4096, // far above demand: measure, don't cap
	}
	delivered := 0
	j := core.New(s, cfg, func(seg *packet.Segment) { delivered += seg.Bytes })

	var inactiveLen, activeLen stats.Sampler
	maxBuf := 0
	sample := sim.NewTicker(s, 50*time.Microsecond, func() {
		inactiveLen.Add(float64(j.InactiveLen()))
		activeLen.Add(float64(j.ActiveLen()))
		if b := j.BufferedBytes(); b > maxBuf {
			maxBuf = b
		}
	})
	poll := sim.NewTicker(s, 10*time.Microsecond, j.PollComplete)
	sample.Start()
	poll.Start()

	n := 0
	var inject func()
	inject = func() {
		n++
		j.Receive(&packet.Packet{
			Flow: packet.FiveTuple{
				SrcIP: uint32(n), DstIP: 2, SrcPort: uint16(n), DstPort: 80,
				Proto: packet.ProtoTCP,
			},
			Seq: 1, PayloadLen: units.MSS, Flags: packet.FlagACK,
		})
		s.Schedule(gap, inject)
	}
	s.Schedule(0, inject)
	s.RunFor(o.scale(40 * time.Millisecond))
	sample.Stop()
	poll.Stop()

	return []string{fDurUs(inseq), fI(int64(bound)), fI(int64(activeLen.Quantile(0.99))),
		fI(int64(activeLen.Max())), fI(int64(inactiveLen.Quantile(0.99))),
		fmt.Sprintf("%d", maxBuf/1024)}
}
