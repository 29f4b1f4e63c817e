// Package cpumodel models the CPU cost of receive-side packet processing.
//
// The paper's evaluation (Figures 9, 10, 12) is about CPU, not just
// protocol behaviour: reordering breaks GRO batching, which multiplies the
// number of segments the stack processes and saturates the core the
// application runs on. To reproduce those results the simulation charges
// calibrated costs to two modelled cores, mirroring the paper's affinity
// setup ("pin the RX queue and the application on two different cores"):
//
//   - the RX-queue core runs the driver NAPI poll, GRO (or Juggler), and
//     the netfilter/IP demux for each flushed segment;
//   - the application core runs TCP, the socket layer, the copy to user
//     space, and ACK transmission.
//
// Each Core is a work-conserving FIFO server in the discrete-event
// simulation: jobs queue and are serviced serially, so when offered load
// exceeds capacity the queue grows and delivery slows — which is exactly
// how a saturated core loses throughput in reality (the receive buffer
// fills and TCP's advertised window throttles the sender).
package cpumodel

import (
	"fmt"
	"time"

	"juggler/internal/sim"
)

// Costs is the calibrated per-operation cost table. The defaults are chosen
// so that the headline ratios of the paper hold on the simulated stack; see
// DefaultCosts for the derivation.
type Costs struct {
	// DriverPerPacket is charged on the RX core for every wire packet the
	// driver polls off the ring (irq handling amortized, DMA unmap, skb
	// setup).
	DriverPerPacket time.Duration

	// GROPerPacket is charged on the RX core for every packet examined by
	// GRO or Juggler (flow lookup + merge attempt).
	GROPerPacket time.Duration

	// JugglerPerPacket is the *additional* RX-core cost Juggler pays per
	// packet for its out-of-order queue bookkeeping (only when the packet
	// actually enters an OOO queue or needs list surgery).
	JugglerPerPacket time.Duration

	// RXPerSegment is charged on the RX core for every segment flushed up
	// the stack (netfilter chains, IP receive, backlog enqueue).
	RXPerSegment time.Duration

	// AppPerSegment is charged on the app core for every segment entering
	// TCP (TCP receive processing, socket bookkeeping, wakeup).
	AppPerSegment time.Duration

	// AppPerKB is charged on the app core per KiB of payload (checksum +
	// copy to user space); per-byte costs are sub-nanosecond so the table
	// keeps them at KiB granularity.
	AppPerKB time.Duration

	// AppPerACKSent is charged on the app core for each ACK generated.
	AppPerACKSent time.Duration

	// LinkedListPerPkt is the extra app-core cost per merged packet when a
	// segment uses the linked-list representation (§3.1, Figure 3): each
	// chained sk_buff is a likely cache miss during traversal.
	LinkedListPerPkt time.Duration
}

// DefaultCosts returns the calibrated cost table.
//
// Calibration targets (all from the paper):
//
//  1. Vanilla kernel, in-order 20 Gb/s single flow: app core well below
//     saturation, RX core moderate. With full GRO batching a 64 KB segment
//     carries ~44 MSS of payload, so at 20 Gb/s the stack sees ~31 K
//     segments/s and ~1.7 M packets/s.
//  2. With reordering the vanilla stack sees ~15x more segments (§5.1.1);
//     per-segment app-core work must then exceed one core's capacity so
//     that throughput drops ~35%.
//  3. Juggler under reordering adds <10% of one core at 20 Gb/s (Fig. 9).
//  4. Linked-list batching costs ~50% more total CPU on in-order traffic
//     (§3.1).
//
// Derivation sketch at 20 Gb/s (1.71 Mpps, MSS payloads):
//   - RX core: 1.71e6 * (Driver 150ns + GRO 80ns) ≈ 39% busy.
//   - App core in-order: 39K seg/s * (Seg 2.2us + ACK 0.5us) + 2.5GB/s *
//     0.09ns/B ≈ 10.5% + 22.5% ≈ 33% busy.
//   - App core reordered vanilla: ~585K seg/s * 2.7us ≈ 158% demanded →
//     saturation; capacity caps goodput near 20 Gb/s * (100/158) ≈ 12.7
//     Gb/s ≈ 35% loss. ✓
//   - Juggler reordered: RX core extra 1.71e6 * 60ns ≈ 10%. ✓
//   - Linked list in-order: app core extra 1.71e6 * 180ns ≈ 31% on top of
//     ~60% total (RX+app avg) ≈ +50% of total CPU. ✓
func DefaultCosts() Costs {
	return Costs{
		DriverPerPacket:  150 * time.Nanosecond,
		GROPerPacket:     80 * time.Nanosecond,
		JugglerPerPacket: 60 * time.Nanosecond,
		RXPerSegment:     600 * time.Nanosecond,
		AppPerSegment:    2200 * time.Nanosecond,
		AppPerKB:         92 * time.Nanosecond, // ≈0.09 ns/byte
		AppPerACKSent:    500 * time.Nanosecond,
		LinkedListPerPkt: 180 * time.Nanosecond,
	}
}

// Core models one CPU core as a FIFO server. Jobs are submitted with a
// service cost and an optional completion callback; utilization is the
// fraction of wall time the core was busy.
type Core struct {
	sim  *sim.Sim
	name string

	// busy accumulates serviced time.
	busy time.Duration
	// freeAt is the virtual time at which the core's queue drains.
	freeAt sim.Time

	// measureStart anchors utilization measurement windows.
	measureStart sim.Time
	busyAtStart  time.Duration

	// QueueLimit, when non-zero, bounds the backlog (freeAt - now); jobs
	// submitted beyond it are reported as rejected so callers can apply
	// back-pressure (modelling a full receive backlog).
	QueueLimit time.Duration
}

// NewCore creates an idle core.
func NewCore(s *sim.Sim, name string) *Core {
	return &Core{sim: s, name: name}
}

// Name returns the core's label ("rx", "app").
func (c *Core) Name() string { return c.name }

// Submit enqueues a job costing d of CPU time; done (if non-nil) runs when
// the job completes service. Returns false if the backlog limit would be
// exceeded, in which case nothing is charged and done will not run.
func (c *Core) Submit(d time.Duration, done func()) bool {
	if !c.admit(d) {
		return false
	}
	if done != nil {
		c.sim.ScheduleAt(c.freeAt, done)
	}
	return true
}

// SubmitArg is Submit for per-packet callers: done is bound once by the
// caller and the job's datum travels as arg, so no closure is minted per
// job.
func (c *Core) SubmitArg(d time.Duration, done func(any), arg any) bool {
	if !c.admit(d) {
		return false
	}
	c.sim.ScheduleArgAt(c.freeAt, done, arg)
	return true
}

// admit charges a job of cost d and advances freeAt to its completion, or
// returns false when the backlog limit refuses it.
func (c *Core) admit(d time.Duration) bool {
	if d < 0 {
		panic("cpumodel: negative cost")
	}
	now := c.sim.Now()
	if c.freeAt < now {
		c.freeAt = now
	}
	if c.QueueLimit > 0 && c.freeAt.Sub(now) > c.QueueLimit {
		return false
	}
	c.busy += d
	c.freeAt = c.freeAt.Add(d)
	return true
}

// Charge accounts d of busy time without a completion callback. It is used
// for costs that do not gate forward progress (e.g. ACK transmission).
func (c *Core) Charge(d time.Duration) { c.Submit(d, nil) }

// Backlog returns the current queued work (0 when idle).
func (c *Core) Backlog() time.Duration {
	now := c.sim.Now()
	if c.freeAt <= now {
		return 0
	}
	return c.freeAt.Sub(now)
}

// BusyTotal returns the cumulative busy time since creation.
func (c *Core) BusyTotal() time.Duration { return c.busy }

// ResetWindow starts a new utilization measurement window at the current
// simulation time.
func (c *Core) ResetWindow() {
	c.measureStart = c.sim.Now()
	c.busyAtStart = c.busy
}

// Utilization returns busy/wall for the current measurement window, as a
// fraction in [0, ~1+] (can exceed 1 transiently because Submit charges
// work when accepted, not when serviced; callers treat >1 as saturated).
func (c *Core) Utilization() float64 {
	wall := c.sim.Now().Sub(c.measureStart)
	if wall <= 0 {
		return 0
	}
	u := float64(c.busy-c.busyAtStart) / float64(wall)
	return u
}

// Model bundles the receive-path cores and the cost table. RX is the core
// serving receive queue 0; hosts with multiple RSS queues pin each
// additional queue to its own core (RXCore), mirroring the usual one-IRQ-
// per-core affinity.
type Model struct {
	Costs Costs
	RX    *Core
	App   *Core

	sim     *sim.Sim
	rxExtra []*Core // cores for RX queues 1..n
}

// New creates a two-core model with the given costs.
func New(s *sim.Sim, costs Costs) *Model {
	return &Model{Costs: costs, RX: NewCore(s, "rx0"), App: NewCore(s, "app"), sim: s}
}

// RXCore returns the core serving RX queue i, creating it on first use.
// Queue 0 is the canonical RX core.
func (m *Model) RXCore(i int) *Core {
	if i <= 0 {
		return m.RX
	}
	for len(m.rxExtra) < i {
		m.rxExtra = append(m.rxExtra, NewCore(m.sim, fmt.Sprintf("rx%d", len(m.rxExtra)+1)))
	}
	return m.rxExtra[i-1]
}

// RXCores returns all instantiated RX cores (queue order).
func (m *Model) RXCores() []*Core {
	out := []*Core{m.RX}
	out = append(out, m.rxExtra...)
	return out
}

// ResetWindows restarts utilization measurement on every core.
func (m *Model) ResetWindows() {
	for _, c := range m.RXCores() {
		c.ResetWindow()
	}
	m.App.ResetWindow()
}

// AppSegmentCost returns the app-core cost of processing one segment of the
// given payload size, packet count and merge representation.
func (m *Model) AppSegmentCost(bytes, pkts int, linkedList bool) time.Duration {
	d := m.Costs.AppPerSegment
	d += m.Costs.AppPerKB * time.Duration(bytes) / 1024
	if linkedList && pkts > 1 {
		// Every chained sk_buff beyond the head costs a cache miss on
		// traversal.
		d += m.Costs.LinkedListPerPkt * time.Duration(pkts-1)
	}
	return d
}

// RXPollCost returns the RX-core cost of a driver+offload poll that handled
// pkts wire packets, of which jugglerPkts required Juggler OOO bookkeeping,
// and flushed segs segments up the stack.
func (m *Model) RXPollCost(pkts, jugglerPkts, segs int) time.Duration {
	return time.Duration(pkts)*(m.Costs.DriverPerPacket+m.Costs.GROPerPacket) +
		time.Duration(jugglerPkts)*m.Costs.JugglerPerPacket +
		time.Duration(segs)*m.Costs.RXPerSegment
}
