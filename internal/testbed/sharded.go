// ShardedHost: the receive datapath of one host assembled on
// nic.ShardedRX — per-queue Jugglers (or rival offloads) with lane-local
// segment pools, optional per-RX-queue adapt controllers, and padded
// per-queue delivery counters, all merged deterministically in queue
// order. It is the shard wiring counterpart of Host: where Host models a
// complete closed-loop end host (TCP feedback through a shared egress —
// zero cross-lane lookahead, so it stays on the serial engine), a
// ShardedHost models the open-loop receive side, the part RSS makes
// core-local in the paper and the part that can use real goroutines
// without giving up byte-identical output.
package testbed

import (
	"fmt"

	"juggler/internal/adapt"
	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/nic"
	"juggler/internal/packet"
)

// ShardedHostConfig configures a sharded receive datapath.
type ShardedHostConfig struct {
	// RX sizes the datapath: logical queue count (output-affecting),
	// lane count (never output-affecting) and poll cadence.
	RX nic.ShardedRXConfig
	// Offload selects the per-queue offload implementation.
	Offload OffloadKind
	// Juggler tunes each queue's Juggler instance (OffloadJuggler);
	// MaxFlows is per queue.
	Juggler core.Config
	// Adapt attaches one detector+controller per RX queue
	// on the queue's own lane — the per-RX-queue adaptive configuration:
	// every queue measures its own traffic and tunes its own instance.
	Adapt bool

	// DeliverTap, when non-nil, observes every delivered segment on the
	// owning queue's lane goroutine, before the segment is recycled.
	// Tap state must be lane-local (e.g. one fleet.LaneProbe per queue,
	// merged in queue order at report time): two queues may fire
	// concurrently on different lanes.
	DeliverTap func(queue int, seg *packet.Segment)
}

// ShardedQueueStats are one queue's delivery counters. The struct is
// padded to a cache line: it is written from the queue's lane goroutine
// on every delivered segment, and two queues on different lanes must not
// share a line.
type ShardedQueueStats struct {
	DeliveredBytes int64
	DeliveredSegs  int64

	_ [48]byte // pad to 64 bytes: see type comment
}

// ShardedHost is the assembled sharded receive datapath.
type ShardedHost struct {
	cfg ShardedHostConfig
	RX  *nic.ShardedRX

	// Jugglers holds the per-queue instances in queue order (nil entries
	// for non-Juggler offloads never happen: the slice is empty then).
	Jugglers []*core.Juggler
	// Controllers holds the per-queue adapt controllers in queue order
	// (empty unless Adapt was set).
	Controllers []*adapt.Controller

	stats []*ShardedQueueStats
	pools []*packet.SegPool
}

// NewShardedHost builds the datapath. Construction happens on the
// calling goroutine before any epoch runs, so every queue's components
// can be created directly on their lane's Sim.
func NewShardedHost(seed int64, cfg ShardedHostConfig) *ShardedHost {
	h := &ShardedHost{cfg: cfg}
	h.RX = nic.NewShardedRX(seed, cfg.RX, func(q *nic.ShardQueue) gro.Offload {
		st := &ShardedQueueStats{}
		h.stats = append(h.stats, st)
		ls := q.Shard().Sim()
		pool := packet.SegPoolFromSim(ls)
		h.pools = append(h.pools, pool)
		queue := q.ID()
		deliver := func(seg *packet.Segment) {
			st.DeliveredBytes += int64(seg.Bytes)
			st.DeliveredSegs++
			if cfg.DeliverTap != nil {
				// Stamp the final hop on the lane clock so the tap can
				// compute end-to-end sojourns; pay-as-you-go — untapped
				// hosts keep the bare fast path.
				if !seg.SkipStamps {
					packet.Stamp(&seg.Stamps, packet.HopDeliver, ls.Now())
				}
				cfg.DeliverTap(queue, seg)
			}
			pool.Put(seg)
		}
		// No sink: lane-side vanilla GRO stays uninstrumented, so the
		// sharded exports match the serial ones.
		off := newOffload(ls, cfg.Offload, cfg.Juggler, pool, deliver, nil)
		if j, ok := off.(*core.Juggler); ok {
			h.Jugglers = append(h.Jugglers, j)
			if cfg.Adapt {
				ctl := adapt.NewController(ls)
				h.Controllers = append(h.Controllers, ctl)
				return ctl.Wrap(j)
			}
		}
		return off
	})
	return h
}

// QueueStats returns queue i's delivery counters. Coordinator-side:
// read between epochs or after Finish.
func (h *ShardedHost) QueueStats(i int) ShardedQueueStats { return *h.stats[i] }

// NumQueues returns the logical queue count.
func (h *ShardedHost) NumQueues() int { return len(h.stats) }

// QueueSegPoolLive returns queue i's lane-local segment pool live count.
// Coordinator-side: read between epochs or after Finish.
func (h *ShardedHost) QueueSegPoolLive(i int) int64 { return h.pools[i].Live() }

// DeliveredBytes sums delivered payload over all queues in queue order.
func (h *ShardedHost) DeliveredBytes() int64 {
	var b int64
	for _, st := range h.stats {
		b += st.DeliveredBytes
	}
	return b
}

// Finish stops the poll tickers and lane workers, then flushes every
// Juggler in queue order (remaining buffered data is delivered and
// counted). After Finish the caller owns all lane state.
func (h *ShardedHost) Finish() {
	h.RX.Stop()
	for _, j := range h.Jugglers {
		j.Flush()
	}
}

// MergedStats sums the per-queue Juggler stats in queue order.
func (h *ShardedHost) MergedStats() core.Stats {
	var s core.Stats
	for _, j := range h.Jugglers {
		st := j.Stats
		s.Add(st)
	}
	return s
}

// CheckInvariants audits every queue's flow table; the first failure is
// returned annotated with its queue.
func (h *ShardedHost) CheckInvariants() error {
	for i, j := range h.Jugglers {
		if err := j.CheckInvariants(); err != nil {
			return fmt.Errorf("queue %d: %w", i, err)
		}
	}
	return nil
}
