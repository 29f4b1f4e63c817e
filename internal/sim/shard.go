// Shard lanes: deterministic parallel intra-sim execution.
//
// The engine in sim.go is strictly single-threaded — that is where its
// reproducibility comes from. ShardGroup adds parallelism one level down
// from internal/sweep's per-point fan-out without giving that up: a group
// owns N shard lanes, each lane a private *Sim (its own clock, event
// queue, free lists and per-Sim slots — so per-shard packet/segment pools
// fall out of the existing PoolFromSim plumbing for free), and advances
// all lanes in lock-step epochs under a conservative virtual-time
// barrier:
//
//	deliver mailboxes -> run every lane to the epoch horizon -> barrier
//
// Within an epoch the lanes run concurrently on pinned worker goroutines
// and may not touch each other's state; everything that crosses a shard
// boundary goes through an explicit mailbox that is drained at the next
// epoch boundary in a deterministic total order (At, sender, send-seq).
// The epoch length is therefore the group's lookahead: a sender must post
// mail at or after the receiver's next epoch start, which Post enforces
// (the "conservative" in conservative parallel discrete-event
// simulation). Workloads whose layers feed back within one epoch — e.g.
// a closed TCP loop through a shared egress port — have zero lookahead
// and cannot be split across lanes; they keep the serial engine. The
// open-loop receive datapath (RSS spreads arrivals over RX queues whose
// GRO state is disjoint by construction) is exactly the shape that can.
//
// Determinism does not come from the barrier alone but from a topology
// rule the NIC layer follows (see nic.ShardedRX): the number of LOGICAL
// queues is fixed by configuration, and shards only decide where each
// queue EXECUTES (queue index mod group size). Per-queue state is
// disjoint, so each queue's event sequence — arrivals, GRO merges, timer
// expiries at its own virtual instants — is identical whether its lane
// hosts one queue or eight. A group of size 1 runs every epoch inline on
// the calling goroutine (no worker goroutines, no channels), which keeps
// the serial run the byte-exact reference the same way sweep.Map's
// workers<=1 contract does.
package sim

import "time"

// Mail is one cross-shard message. Mail is delivered at an epoch
// boundary: a receiver sees, at the start of each epoch, every message
// posted to it during earlier epochs whose delivery time has been
// reached, sorted by (At, From, Seq) — a total order no execution
// interleaving can perturb.
type Mail struct {
	// At is the virtual delivery time. Post enforces the conservative
	// bound: mail posted from inside an epoch must not be addressed
	// before that epoch's horizon (the receiver may already have advanced
	// past any earlier instant).
	At Time
	// From is the sending shard's id, or CoordinatorID for mail posted
	// between epochs by the coordinating goroutine.
	From int
	// Seq is the sender-local send counter, the deterministic tie-break
	// among same-instant mail from one sender.
	Seq uint64
	// Data is the payload. Senders that need the transfer to stay
	// allocation-free pass a pointer to a reused carrier struct.
	Data any
}

// CoordinatorID is the Mail.From value for mail posted by the
// coordinating goroutine between epochs.
const CoordinatorID = -1

// mailBefore is the deterministic mailbox merge order.
func mailBefore(a, b Mail) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Seq < b.Seq
}

// Shard is one lane of a ShardGroup: a private simulator plus the lane's
// mailbox endpoints. During an epoch a shard is owned exclusively by its
// worker goroutine; between epochs the coordinating goroutine owns all of
// them (the barrier is the ownership transfer, so there is no locking on
// any hot path).
//
// The struct is padded so two Shards never share a cache line: lanes hammer
// their own sim's queue/free-list headers and their mailbox slices from
// different cores, and adjacent heap allocations would otherwise
// false-share.
type Shard struct {
	id  int
	sim *Sim
	g   *ShardGroup

	// inbox is this epoch's delivered mail, sorted by (At, From, Seq).
	// The lane reads it during the epoch; the coordinator rebuilds it at
	// each boundary. Capacity is reused.
	inbox []Mail

	// pending holds posted mail whose delivery epoch has not started yet
	// (At beyond the next horizon). Coordinator-owned.
	pending []Mail

	// staged is the outbox: staged[d] holds mail this shard posted toward
	// shard d during the current epoch. Only this lane appends; the
	// coordinator drains it at the barrier. Capacity is reused.
	staged [][]Mail

	// sendSeq numbers this shard's posts (the Mail.Seq tie-break).
	sendSeq uint64

	_ [64]byte // pad: see type comment
}

// ID returns the shard's lane index in [0, group.N()).
func (sh *Shard) ID() int { return sh.id }

// Sim returns the shard's private simulator. Components built on it
// (offloads, timers, pools via the per-Sim slots) are lane-local by
// construction.
func (sh *Shard) Sim() *Sim { return sh.sim }

// Inbox returns the mail delivered for the current epoch, sorted by
// (At, From, Seq). Valid only during the epoch (the lane's goroutine);
// the slice is rebuilt at the next boundary.
func (sh *Shard) Inbox() []Mail { return sh.inbox }

// Post sends mail to shard `to`, delivered at the next epoch boundary
// whose horizon covers at. Callable from the lane's goroutine during an
// epoch; at must be >= the current epoch's horizon — posting earlier
// would address a virtual instant the receiver may already have executed
// past, and panics (the conservative lag bound).
func (sh *Shard) Post(to int, at Time, data any) {
	if at < sh.g.until {
		panic("sim: shard mail posted before the epoch horizon (lag bound violated)")
	}
	sh.sendSeq++
	sh.staged[to] = append(sh.staged[to], Mail{At: at, From: sh.id, Seq: sh.sendSeq, Data: data})
}

// ShardGroup coordinates N shard lanes. All methods are
// coordinator-side (single goroutine) unless noted; Shard.Post and
// Shard.Inbox are the lane-side surface.
type ShardGroup struct {
	shards []*Shard

	// horizon is the virtual time every lane has reached (the last
	// epoch's end); until is the running epoch's end.
	horizon Time
	until   Time

	// coordStaged / coordSeq are the coordinator's outbox.
	coordStaged [][]Mail
	coordSeq    uint64

	// Worker plumbing, created lazily on the first multi-lane epoch.
	started bool
	closed  bool
	start   []chan epochWork
	done    chan struct{}
}

// epochWork is one epoch assignment handed to a lane worker.
type epochWork struct {
	until Time
	body  func(*Shard)
}

// NewShardGroup creates n lanes (n >= 1). Each lane's simulator is
// seeded deterministically from seed and its lane index, so stochastic
// components built on a lane reproduce bit-identically for a given
// (seed, lane) regardless of the group size hosting them.
func NewShardGroup(seed int64, n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one lane")
	}
	g := &ShardGroup{shards: make([]*Shard, n), coordStaged: make([][]Mail, n)}
	for i := 0; i < n; i++ {
		sh := &Shard{id: i, g: g, sim: New(seed + int64(i)*0x9e3779b9), staged: make([][]Mail, n)}
		g.shards[i] = sh
	}
	return g
}

// N returns the lane count.
func (g *ShardGroup) N() int { return len(g.shards) }

// Shard returns lane i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Horizon returns the virtual time every lane has reached.
func (g *ShardGroup) Horizon() Time { return g.horizon }

// Post sends coordinator mail to shard `to`, delivered at the start of
// the next epoch. at must be >= the current horizon.
func (g *ShardGroup) Post(to int, at Time, data any) {
	if at < g.horizon {
		panic("sim: coordinator mail posted into the past")
	}
	g.coordSeq++
	g.coordStaged[to] = append(g.coordStaged[to], Mail{At: at, From: CoordinatorID, Seq: g.coordSeq, Data: data})
}

// deliver rebuilds every lane's inbox for the epoch ending at `until`:
// newly staged mail (coordinator first, then each sender lane in id
// order) joins the destination's pending buffer, the buffer is insertion-
// sorted into the (At, From, Seq) total order, and the prefix with
// At <= until is moved to the inbox — mail addressed beyond this epoch
// stays pending. Insertion sort keeps the boundary allocation-free (no
// sort.Slice closure) and is near-linear here: senders stage in
// nondecreasing At, so runs are mostly ordered.
func (g *ShardGroup) deliver(until Time) {
	for d, dst := range g.shards {
		pend := dst.pending
		pend = append(pend, g.coordStaged[d]...)
		g.coordStaged[d] = g.coordStaged[d][:0]
		for _, src := range g.shards {
			pend = append(pend, src.staged[d]...)
			src.staged[d] = src.staged[d][:0]
		}
		for i := 1; i < len(pend); i++ {
			m := pend[i]
			j := i
			for j > 0 && mailBefore(m, pend[j-1]) {
				pend[j] = pend[j-1]
				j--
			}
			pend[j] = m
		}
		if len(pend) > 0 && pend[0].At < g.horizon {
			panic("sim: mail delivered before the epoch start (lag bound violated)")
		}
		k := 0
		for k < len(pend) && pend[k].At <= until {
			k++
		}
		dst.inbox = append(dst.inbox[:0], pend[:k]...)
		n := copy(pend, pend[k:])
		dst.pending = pend[:n]
	}
}

// RunEpoch advances every lane to the virtual time `until`: mailboxes are
// delivered, body (if non-nil) runs once per lane — typically draining
// Inbox into scheduled arrivals — and each lane's simulator runs to
// `until`. With more than one lane the epochs execute on pinned worker
// goroutines and RunEpoch is the barrier; with exactly one lane
// everything runs inline on the calling goroutine, which is the byte-
// exact serial reference.
//
// body is called concurrently from the lane goroutines and must touch
// only the shard it is handed.
func (g *ShardGroup) RunEpoch(until Time, body func(*Shard)) {
	if g.closed {
		panic("sim: RunEpoch on a closed shard group")
	}
	if until < g.horizon {
		panic("sim: epoch horizon moved backwards")
	}
	g.until = until
	g.deliver(until)
	if len(g.shards) == 1 {
		sh := g.shards[0]
		if body != nil {
			body(sh)
		}
		sh.sim.RunUntil(until)
	} else {
		g.ensureWorkers()
		w := epochWork{until: until, body: body}
		for _, ch := range g.start {
			ch <- w
		}
		for range g.shards {
			<-g.done
		}
	}
	g.horizon = until
}

// ensureWorkers starts the lane goroutines on first use.
func (g *ShardGroup) ensureWorkers() {
	if g.started {
		return
	}
	g.started = true
	g.start = make([]chan epochWork, len(g.shards))
	g.done = make(chan struct{}, len(g.shards))
	for i, sh := range g.shards {
		ch := make(chan epochWork)
		g.start[i] = ch
		go func(sh *Shard, ch chan epochWork) {
			for w := range ch {
				if w.body != nil {
					w.body(sh)
				}
				sh.sim.RunUntil(w.until)
				g.done <- struct{}{}
			}
		}(sh, ch)
	}
}

// Close stops the worker goroutines. The lanes' simulators remain
// readable (the coordinator owns them after the last barrier); further
// RunEpoch calls panic.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.start {
		close(ch)
	}
}

// RunEpochsUntil advances the group to t in fixed-length epochs (the
// last one truncated to land exactly on t). A convenience for drain
// phases with no per-epoch injection.
func (g *ShardGroup) RunEpochsUntil(t Time, epoch time.Duration, body func(*Shard)) {
	if epoch <= 0 {
		panic("sim: non-positive epoch length")
	}
	for g.horizon < t {
		next := g.horizon.Add(epoch)
		if next > t {
			next = t
		}
		g.RunEpoch(next, body)
	}
}
