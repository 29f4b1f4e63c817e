// Sharded receive datapath: the RX side of one host split across real
// goroutines, deterministically.
//
// The serial RX in nic.go steers packets to per-queue GRO offloads with
// RSS but executes every queue on the one simulation goroutine. ShardedRX
// keeps the same topology rule — a FIXED number of logical RX queues,
// RSS (the stamped FlowHash, salted on Rehash) as the partitioning
// function — and maps queues onto the lanes of a sim.ShardGroup
// (queue index mod lane count). Because the queue count is configuration
// and the lane count is not, per-queue execution is identical at any
// lane count: each queue sees the same arrivals at the same virtual
// instants, runs its offload and poll cadence on its own lane clock, and
// its timers fire at the same deadlines regardless of which other queues
// share the lane. Queue-indexed results merged in queue order are
// therefore byte-identical to the serial (one-lane) run — the same bar
// internal/sweep set for `-j`.
//
// Traffic enters through the group mailbox: the coordinator stages each
// queue's arrivals for the next epoch (slabs owned per queue, reused —
// the staging path is allocation-free in steady state), posts one mail
// per queue carrying the slab, and the lane body turns its inbox into
// scheduled arrival events. RSS rehash takes effect at an epoch boundary
// — exactly the semantics of a real NIC indirection-table rewrite, where
// in-flight state stays on the old queue and drains via its own
// timeouts, while the flow's future packets land on the new queue
// (cross-shard handoff).
package nic

import (
	"time"

	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// ShardedRXConfig configures the sharded receive datapath of one host.
type ShardedRXConfig struct {
	// Queues is the number of LOGICAL RX queues. It is part of the
	// workload's identity: changing it changes which flows share GRO
	// state, exactly like re-provisioning a NIC. Default 8.
	Queues int

	// Shards is the number of execution lanes the queues are spread
	// across (queue index mod Shards). It is never output-affecting:
	// 0 or 1 runs every queue inline on the calling goroutine — the
	// byte-exact serial reference — and N > 1 runs lanes on real
	// goroutines under the conservative epoch barrier.
	Shards int

	// PollEvery is each queue's poll-completion cadence (offload
	// PollComplete), driven by a per-queue ticker on the owning lane.
	// Default 10us.
	PollEvery time.Duration
}

func (c ShardedRXConfig) withDefaults() ShardedRXConfig {
	if c.Queues <= 0 {
		c.Queues = 8
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > c.Queues {
		c.Shards = c.Queues // a lane without a queue would only idle
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 10 * time.Microsecond
	}
	return c
}

// ShardQueue is one logical RX queue: its staging slab (coordinator-
// owned between epochs), its offload (lane-owned during epochs), and its
// poll ticker on the owning lane's clock.
type ShardQueue struct {
	id    int
	shard *sim.Shard
	off   gro.Offload
	poll  *sim.Ticker

	// Coordinator-side staging for the next epoch: arrival copies and
	// their instants, nondecreasing. Reused across epochs.
	slab []packet.Packet
	at   []sim.Time

	// Lane-side arrival cursor: scheduleArrivals walks the slab one
	// same-instant batch at a time through a single self-rescheduling
	// event (arrive), so an epoch needs one live event per queue no
	// matter how many arrival instants it stages.
	cur    int
	view   []*packet.Packet
	arrive func()

	// RxPackets counts wire packets staged into this queue.
	RxPackets int64
}

// ID returns the queue index.
func (q *ShardQueue) ID() int { return q.id }

// Shard returns the lane hosting this queue; components built for the
// queue (offloads, adapt controllers) must live on its Sim.
func (q *ShardQueue) Shard() *sim.Shard { return q.shard }

// Offload returns the queue's offload.
func (q *ShardQueue) Offload() gro.Offload { return q.off }

// scheduleArrivals is the lane-body half of injection: called at the
// epoch start with the lane clock at the epoch's first staged instant or
// earlier, it arms the queue's arrival walker.
func (q *ShardQueue) scheduleArrivals() {
	q.cur = 0
	q.shard.Sim().ScheduleAt(q.at[0], q.arrive)
}

// runBatch delivers the staged same-instant run beginning at q.cur as
// one offload batch, then re-arms for the next instant.
func (q *ShardQueue) runBatch() {
	i := q.cur
	at := q.at[i]
	j := i + 1
	for j < len(q.at) && q.at[j] == at {
		j++
	}
	view := q.view[:0]
	for k := i; k < j; k++ {
		view = append(view, &q.slab[k])
	}
	q.view = view
	q.off.ReceiveBatch(view)
	q.cur = j
	if j < len(q.at) {
		q.shard.Sim().ScheduleAt(q.at[j], q.arrive)
	}
}

// ShardedRX is the sharded receive datapath of one host. All exported
// methods are coordinator-side: they may only be called between epochs
// (construction time, between RunEpoch calls, or after Stop).
type ShardedRX struct {
	cfg    ShardedRXConfig
	group  *sim.ShardGroup
	queues []*ShardQueue
	salt   uint32
	body   func(*sim.Shard) // stable epoch body: no per-epoch closures
}

// NewShardedRX builds the datapath: a lane group, Queues queues spread
// queue-mod-lane across it, and one offload per queue from makeOffload —
// which receives the queue with its lane already assigned, so the
// offload (and anything wrapped around it) is constructed on the lane's
// private Sim and inherits lane-local pools via the per-Sim slots.
func NewShardedRX(seed int64, cfg ShardedRXConfig, makeOffload func(q *ShardQueue) gro.Offload) *ShardedRX {
	cfg = cfg.withDefaults()
	srx := &ShardedRX{
		cfg:   cfg,
		group: sim.NewShardGroup(seed, cfg.Shards),
	}
	srx.body = srx.runLane
	srx.queues = make([]*ShardQueue, cfg.Queues)
	for i := range srx.queues {
		q := &ShardQueue{id: i, shard: srx.group.Shard(i % cfg.Shards)}
		q.arrive = q.runBatch
		q.off = makeOffload(q)
		q.poll = sim.NewTicker(q.shard.Sim(), cfg.PollEvery, q.off.PollComplete)
		q.poll.Start()
		srx.queues[i] = q
	}
	return srx
}

// Group exposes the lane group (horizon, epoch count, lane access).
func (srx *ShardedRX) Group() *sim.ShardGroup { return srx.group }

// Queues returns the logical queue count.
func (srx *ShardedRX) Queues() int { return len(srx.queues) }

// Queue returns logical queue i.
func (srx *ShardedRX) Queue(i int) *ShardQueue { return srx.queues[i] }

// QueueFor mirrors RX.pick: the RSS queue for a packet under the current
// salt. Coordinator-side routing, so a mid-run Rehash takes effect at an
// epoch boundary by construction.
func (srx *ShardedRX) QueueFor(p *packet.Packet) int {
	if srx.salt == 0 {
		return int(p.FlowHash) % len(srx.queues)
	}
	return int(p.Flow.Hash(srx.salt)) % len(srx.queues)
}

// Rehash rewrites the RSS salt, like a NIC indirection-table update:
// subsequent injections route under the new salt, state already on the
// old queues stays there and drains through their own timeouts.
func (srx *ShardedRX) Rehash(salt uint32) { srx.salt = salt }

// Inject stages one packet copy for the next epoch: it is routed by RSS,
// stamped with its FlowHash exactly as RX.Deliver does, and will arrive
// at its queue's offload at virtual time `at`. Per-queue arrival
// instants must be staged in nondecreasing order, and `at` must not
// precede the group horizon (it belongs to a future epoch).
func (srx *ShardedRX) Inject(at sim.Time, p *packet.Packet) {
	p.FlowHash = p.Flow.Hash(0)
	q := srx.queues[srx.QueueFor(p)]
	if n := len(q.at); n > 0 && q.at[n-1] > at {
		panic("nic: sharded injection times must be nondecreasing per queue")
	}
	q.slab = append(q.slab, *p)
	q.at = append(q.at, at)
	q.RxPackets++
}

// runLane is the per-epoch lane body: each mail carries one queue whose
// staged slab becomes scheduled arrivals on the lane clock.
func (srx *ShardedRX) runLane(sh *sim.Shard) {
	for _, m := range sh.Inbox() {
		m.Data.(*ShardQueue).scheduleArrivals()
	}
}

// RunEpoch advances every lane to `until`, delivering everything staged
// since the previous epoch. Staged arrivals must all lie at or before
// `until` (the epoch is the injection lookahead).
func (srx *ShardedRX) RunEpoch(until sim.Time) {
	for _, q := range srx.queues {
		if len(q.at) > 0 {
			srx.group.Post(q.shard.ID(), q.at[0], q)
		}
	}
	srx.group.RunEpoch(until, srx.body)
	for _, q := range srx.queues {
		if q.cur != len(q.at) {
			panic("nic: staged arrivals beyond the epoch horizon")
		}
		q.slab = q.slab[:0]
		q.at = q.at[:0]
		q.cur = 0
	}
}

// RunEpochsUntil advances to t in fixed-length epochs with no further
// injection — the drain phase after traffic stops.
func (srx *ShardedRX) RunEpochsUntil(t sim.Time, epoch time.Duration) {
	srx.group.RunEpochsUntil(t, epoch, srx.body)
}

// Stop halts every queue's poll ticker and the lane workers. The lanes'
// state (offloads, pools, stats) remains readable by the caller, which
// owns all lanes once the last barrier has passed.
func (srx *ShardedRX) Stop() {
	for _, q := range srx.queues {
		q.poll.Stop()
	}
	srx.group.Close()
}

// Counters sums the per-queue offload counters in queue order.
func (srx *ShardedRX) Counters() gro.Counters {
	var c gro.Counters
	for _, q := range srx.queues {
		c.Add(q.off.Counters())
	}
	return c
}

// SegLive sums live (minted, unrecycled) segments over the lane-local
// segment pools — the sharded stack's leak figure for
// chaos.Checker.CheckSegLeaks.
func (srx *ShardedRX) SegLive() int64 {
	var live int64
	for i := 0; i < srx.group.N(); i++ {
		live += packet.SegPoolFromSim(srx.group.Shard(i).Sim()).Live()
	}
	return live
}
