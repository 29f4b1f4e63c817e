package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"juggler/internal/core"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// shardedRX drives the flow-scale workload through the sharded receive
// datapath (testbed.ShardedHost on nic.ShardedRX): eight logical RX
// queues, RSS-partitioned flows, per-queue Jugglers with lane-local
// pools, and a mid-run RSS rehash that moves every flow to a new queue —
// the cross-shard handoff case, where in-flight holes strand on the old
// queue and drain through its own timeouts while the flow's future
// packets build up fresh state on the new one.
//
// The run is one point, so it spends the whole -j budget (Options.Workers)
// on execution lanes, capped at the 8 queues. The table is keyed by
// logical queue, never by lane: the queue count is fixed at 8 whatever
// -j says, so the rows — and the conservation and leak figures in the
// notes — are byte-identical at any -j. That identity is the
// experiment's whole point; the wall-clock side of sharding is the
// sim.shard_speedup_2 line of the repository benchmark's traced pass
// (go run -C bench . -trace 1).

// flowScaleTuple is flow f's five-tuple in the flow-scale workload.
func flowScaleTuple(f int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: uint32(f/65000) + 1, DstIP: 9,
		SrcPort: uint16(f % 65000), DstPort: 5001, Proto: packet.ProtoTCP,
	}
}

// flowScaleFates is the flow-scale workload's per-flow fate schedule: a
// fixed round schedule, one MSS packet per flow and round, with every flow
// reordering.
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

const (
	// shardedRXQueues is the logical RX queue count, fixed whatever -j says.
	shardedRXQueues = 8
	// shardedRXQuickFlows is the flow count at -quick; the shardedrx
	// shape's fair-share band is computed from it.
	shardedRXQuickFlows = 5000
)

// shardedRXParams sizes the workload.
type shardedRXParams struct {
	flows, rounds int
	lanes         int
}

// shardedRXResult carries one run's merged deterministic outcome.
type shardedRXResult struct {
	sent, delivered int64
	handoffs        int
	perQueue        []shardedRXQueueRow
	segLive         int64
	invariantErr    error
}

type shardedRXQueueRow struct {
	pkts  int64
	segs  int64
	stats core.Stats
	ooo   int64
	bytes int64
}

// runShardedRX executes the workload once. The coordinator stages every
// arrival and draws every random fate serially (the identical sequence
// at any lane count); only the per-queue receive work runs on the lanes.
func runShardedRX(o Options, p shardedRXParams) shardedRXResult {
	const interval = 20 * time.Microsecond // one round per epoch

	// The coordinator sim exists for the deterministic RNG (and the
	// telemetry attach hook, so traced runs stay valid); it executes no
	// events — virtual time lives on the lanes.
	s := o.newSim()
	rng := s.Rand()

	cfg := testbed.ShardedHostConfig{
		RX: nic.ShardedRXConfig{
			Queues:    shardedRXQueues,
			Shards:    p.lanes,
			PollEvery: 10 * time.Microsecond,
		},
		Offload: testbed.OffloadJuggler,
		Juggler: core.Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			// Per-queue tables: twice the fair share absorbs RSS skew
			// without mass eviction (evictions that do happen are part
			// of the deterministic output).
			MaxFlows: 2*p.flows/shardedRXQueues + 64,
		},
	}
	o.tune(&cfg.Juggler)
	cfg.Adapt = o.Adapt
	h := testbed.NewShardedHost(o.Seed, cfg)

	var res shardedRXResult
	var at sim.Time // the current round's arrival instant
	send := func(f int, seq uint32, last bool) {
		pkt := packet.Packet{
			Flow: flowScaleTuple(f),
			Seq:  1 + seq*units.MSS, PayloadLen: units.MSS,
			Flags: packet.FlagACK,
		}
		if last {
			pkt.Flags |= packet.FlagPSH
		}
		res.sent += int64(pkt.PayloadLen)
		h.RX.Inject(at, &pkt)
	}

	fates := newFlowScaleFates(p.flows, p.rounds)
	const rehashSalt = 0x9e3779b9
	for r := 0; r < p.rounds; r++ {
		if r == p.rounds/2 {
			// Mid-run indirection-table rewrite: count the flows whose
			// queue assignment changes (the handoff population), then
			// apply it — at an epoch boundary by construction.
			for f := 0; f < p.flows; f++ {
				pkt := packet.Packet{Flow: flowScaleTuple(f)}
				pkt.FlowHash = pkt.Flow.Hash(0)
				before := h.RX.QueueFor(&pkt)
				h.RX.Rehash(rehashSalt)
				after := h.RX.QueueFor(&pkt)
				h.RX.Rehash(0)
				if before != after {
					res.handoffs++
				}
			}
			h.RX.Rehash(rehashSalt)
		}
		at = sim.Time(0).Add(time.Duration(r) * interval)
		fates.round(rng, r, send)
		h.RX.RunEpoch(at.Add(interval))
	}

	// Drain: a millisecond of epochs with no traffic lets every inseq
	// and ofo timeout expire, then Finish flushes the remainder.
	end := sim.Time(0).Add(time.Duration(p.rounds)*interval + time.Millisecond)
	h.RX.RunEpochsUntil(end, interval)
	res.invariantErr = h.CheckInvariants()
	h.Finish()

	for i := 0; i < h.RX.Queues(); i++ {
		q := h.RX.Queue(i)
		c := q.Offload().Counters()
		st := h.QueueStats(i)
		res.perQueue = append(res.perQueue, shardedRXQueueRow{
			pkts: c.Packets, segs: c.Segments, ooo: c.OOOWork,
			stats: h.Jugglers[i].Stats, bytes: st.DeliveredBytes,
		})
		res.delivered += st.DeliveredBytes
	}
	res.segLive = h.RX.SegLive()
	return res
}

func init() {
	// One point, spending the whole -j budget on lanes; post checks
	// conservation and leaks, and appends the TOTAL row and the notes.
	register("shardedrx", entry{
		desc:    "flow-scale workload on the sharded (multi-goroutine) receive datapath with RSS rehash handoff",
		title:   "sharded receive datapath: flow-scale workload across 8 RSS queues with a mid-run rehash",
		columns: []string{"queue", "pkts", "segs", "flush_event", "flush_inseq", "flush_ofo", "ofo_timeouts", "ooo_work_per_pkt", "delivered_MB"},
		shape:   shardedRXShape,
		fill: combine(func(o Options) []shardedRXParams {
			return []shardedRXParams{{flows: quickOr(o, 100000, shardedRXQuickFlows), rounds: quickOr(o, 16, 8), lanes: max(1, o.Workers)}}
		}, runShardedRX, func(t *Table, ps []shardedRXParams, results []shardedRXResult) {
			p, res := ps[0], results[0]
			if res.delivered != res.sent {
				panic(fmt.Sprintf("shardedrx: delivered %d of %d bytes", res.delivered, res.sent))
			}
			if res.invariantErr != nil {
				panic("shardedrx: " + res.invariantErr.Error())
			}
			if res.segLive != 0 {
				panic(fmt.Sprintf("shardedrx: %d segments leaked", res.segLive))
			}
			add := func(label string, r shardedRXQueueRow) {
				t.Add(label, fI(r.pkts), fI(r.segs), fI(r.stats.FlushEvent),
					fI(r.stats.FlushInseqTimeout), fI(r.stats.FlushOfoTimeout),
					fI(r.stats.OfoTimeouts), fF(float64(r.ooo)/float64(r.pkts)),
					fF(float64(r.bytes)/(1<<20)))
			}
			var tot shardedRXQueueRow
			for qi, row := range res.perQueue {
				add(fI(int64(qi)), row)
				tot.pkts += row.pkts
				tot.segs += row.segs
				tot.ooo += row.ooo
				tot.bytes += row.bytes
				tot.stats.Add(row.stats)
			}
			add("TOTAL", tot)
			t.Note("mid-run RSS rehash moved %d of %d flows to a new queue — the worst-case handoff (FNV's low bits are linear in the salt, so a salt change remaps every flow, same as the serial RX): stranded holes drained on the old queue via its own timeouts, byte conservation held (%d bytes), 0 segments leaked across all lane pools",
				res.handoffs, p.flows, res.sent)
			t.Note("rows are keyed by logical queue (fixed at 8) and merged in queue order, so this table is byte-identical at any -j; wall-clock scaling is sim.shard_speedup_2 in the repository benchmark (bench/, -trace 1)")
		}),
	})
}
