package experiments

import (
	"fmt"
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
	const (
		interval = 20 * time.Microsecond // one round per epoch
		queues   = 8
	)

	// The coordinator sim exists for the deterministic RNG (and the
	// telemetry attach hook, so traced runs stay valid); it executes no
	// events — virtual time lives on the lanes.
	s := o.newSim()
	rng := s.Rand()

	cfg := testbed.ShardedHostConfig{
		RX: nic.ShardedRXConfig{
			Queues:    queues,
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
			MaxFlows: 2*p.flows/queues + 64,
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

func shardedRX(o Options) *Table {
	t := &Table{
		ID:    "shardedrx",
		Title: "sharded receive datapath: flow-scale workload across 8 RSS queues with a mid-run rehash",
		Columns: []string{"queue", "pkts", "segs", "flush_event", "flush_inseq", "flush_ofo",
			"ofo_timeouts", "ooo_work_per_pkt", "delivered_MB"},
	}
	p := shardedRXParams{flows: 100000, rounds: 16, lanes: max(1, o.Workers)}
	if o.Quick {
		p.flows, p.rounds = 5000, 8
	}
	res := runShardedRX(o, p)
	if res.delivered != res.sent {
		panic(fmt.Sprintf("shardedrx: delivered %d of %d bytes", res.delivered, res.sent))
	}
	if res.invariantErr != nil {
		panic("shardedrx: " + res.invariantErr.Error())
	}
	if res.segLive != 0 {
		panic(fmt.Sprintf("shardedrx: %d segments leaked", res.segLive))
	}

	var tot shardedRXQueueRow
	for qi, row := range res.perQueue {
		t.Add(fI(int64(qi)), fI(row.pkts), fI(row.segs), fI(row.stats.FlushEvent),
			fI(row.stats.FlushInseqTimeout), fI(row.stats.FlushOfoTimeout),
			fI(row.stats.OfoTimeouts), fF(float64(row.ooo)/float64(row.pkts)),
			fF(float64(row.bytes)/(1<<20)))
		tot.pkts += row.pkts
		tot.segs += row.segs
		tot.ooo += row.ooo
		tot.bytes += row.bytes
		tot.stats.Add(row.stats)
	}
	t.Add("TOTAL", fI(tot.pkts), fI(tot.segs), fI(tot.stats.FlushEvent),
		fI(tot.stats.FlushInseqTimeout), fI(tot.stats.FlushOfoTimeout),
		fI(tot.stats.OfoTimeouts), fF(float64(tot.ooo)/float64(tot.pkts)),
		fF(float64(tot.bytes)/(1<<20)))
	t.Note("mid-run RSS rehash moved %d of %d flows to a new queue — the worst-case handoff (FNV's low bits are linear in the salt, so a salt change remaps every flow, same as the serial RX): stranded holes drained on the old queue via its own timeouts, byte conservation held (%d bytes), 0 segments leaked across all lane pools",
		res.handoffs, p.flows, res.sent)
	// The note's wording, the removed -shards flag included, is pinned by
	// testdata/tables_golden.json.
	t.Note("rows are keyed by logical queue (fixed at 8) and merged in queue order, so this table is byte-identical at any -shards and any -j; wall-clock scaling is sim.shard_speedup_2 in the repository benchmark (bench/, -trace 1)")
	return t
}

func init() {
	register("shardedrx", entry{run: shardedRX, desc: "flow-scale workload on the sharded (multi-goroutine) receive datapath with RSS rehash handoff"})
}
