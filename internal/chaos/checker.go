package chaos

import (
	"fmt"
	"sort"

	"juggler/internal/fabric"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Invariant names the end-to-end property a Violation breaks.
type Invariant string

// The four invariants the checker enforces continuously.
const (
	// InvOrder: no out-of-order segment delivery to TCP — every data
	// segment observed at the delivery point starts exactly at the flow's
	// cumulative in-order frontier. Asserted only under Config.StrictOrder,
	// because vanilla GRO makes no such promise under reordering (that
	// asymmetry is the point of the paper).
	InvOrder Invariant = "order"
	// InvConservation: delivered bytes are a subset of sent bytes — the
	// stack may lose data (the fabric drops) but never fabricate sequence
	// ranges the sender did not emit.
	InvConservation Invariant = "conservation"
	// InvTable: a gro_table audit (core.CheckInvariants via TableView)
	// failed — a flow leaked past the Table-2 eviction bounds or a list
	// invariant broke.
	InvTable Invariant = "gro-table"
	// InvQuiescence: the event queue failed to drain after traffic stopped —
	// a timer or rearm loop leaked.
	InvQuiescence Invariant = "quiescence"
	// InvSegLeak: the simulation's segment pool has live (minted but never
	// recycled) segments at quiescence. Every offload mints through the
	// shared pool and testbed.Host is the single recycle point, so a
	// non-zero live count means an offload retained a segment it handed out
	// (or double-recycled one, which shows up negative).
	InvSegLeak Invariant = "seg-leak"
)

// Violation is one invariant failure, timestamped in simulation time so a
// report is reproducible bit for bit across same-seed runs.
type Violation struct {
	At        sim.Time
	Invariant Invariant
	Flow      packet.FiveTuple // zero for non-flow violations
	Detail    string
}

// String formats the violation for reports.
func (v Violation) String() string {
	if (v.Flow == packet.FiveTuple{}) {
		return fmt.Sprintf("[%v] %s: %s", v.At, v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%v] %s %v: %s", v.At, v.Invariant, v.Flow, v.Detail)
}

// TableView is the slice of a receive-offload flow table the checker can
// audit without importing the implementation: core.Juggler satisfies it.
// Keeping the dependency inverted lets package core's own tests import
// chaos and cross-check against the same invariants.
type TableView interface {
	// TableLen returns the current number of tracked flows.
	TableLen() int
	// CheckInvariants returns nil when every structural invariant of the
	// table holds (bounded size, consistent lists, armed timeouts).
	CheckInvariants() error
}

// Config tunes the Checker.
type Config struct {
	// StrictOrder enables the in-order-delivery invariant. Set it for
	// scenarios whose impairments a resilient stack must fully absorb
	// (reordering, header corruption); leave it off when the scenario
	// involves loss or duplication, where retransmission plumbing makes
	// dup delivery to TCP legitimate.
	StrictOrder bool
}

// maxViolations bounds how many Violation records are retained; counting
// continues past the bound.
const maxViolations = 64

// flowState is the checker's per-flow account of sent coverage and the
// delivery frontier.
type flowState struct {
	// sentISN / sentEnd bracket the sent byte range [sentISN, sentEnd).
	// Senders emit contiguously from their ISN, so the coverage is a
	// single interval; retransmissions stay inside it.
	sentISN, sentEnd uint32
	sentAny          bool

	// delivered is the cumulative in-order frontier at the delivery point:
	// the next byte TCP expects. Initialized to the ISN on first send.
	delivered uint32
}

// Checker is the end-to-end invariant observer. It taps the sender's
// egress (TapTX) to learn the ground-truth sent byte ranges, observes
// every segment the offload layer delivers to TCP (ObserveSegment), audits
// offload flow tables after every state change (TableProbe), and checks
// event-queue quiescence after traffic stops (CheckQuiescence).
type Checker struct {
	sim *sim.Sim
	cfg Config

	flows map[packet.FiveTuple]*flowState

	violations []Violation
	counts     map[Invariant]int64
	total      int64

	// SegmentsSeen / PacketsSent count observations, so a report can show
	// the checker was actually in the path.
	SegmentsSeen int64
	PacketsSent  int64
}

// NewChecker creates a checker bound to the simulation clock.
func NewChecker(s *sim.Sim, cfg Config) *Checker {
	return &Checker{
		sim:    s,
		cfg:    cfg,
		flows:  map[packet.FiveTuple]*flowState{},
		counts: map[Invariant]int64{},
	}
}

// violate records one invariant failure.
func (c *Checker) violate(inv Invariant, flow packet.FiveTuple, detail string) {
	c.total++
	c.counts[inv]++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, Violation{
			At: c.sim.Now(), Invariant: inv, Flow: flow, Detail: detail,
		})
	}
}

// flow returns (creating) the state for ft.
func (c *Checker) flow(ft packet.FiveTuple) *flowState {
	st := c.flows[ft]
	if st == nil {
		st = &flowState{}
		c.flows[ft] = st
	}
	return st
}

// NoteSent records a data packet entering the network, extending the
// flow's sent coverage.
func (c *Checker) NoteSent(p *packet.Packet) {
	if !p.IsData() {
		return
	}
	c.PacketsSent++
	st := c.flow(p.Flow)
	if !st.sentAny {
		st.sentAny = true
		st.sentISN = p.Seq
		st.sentEnd = p.EndSeq()
		st.delivered = p.Seq
		return
	}
	st.sentISN = packet.SeqMin(st.sentISN, p.Seq)
	st.sentEnd = packet.SeqMax(st.sentEnd, p.EndSeq())
}

// tapSink wires NoteSent in front of a downstream fabric sink.
type tapSink struct {
	c    *Checker
	next fabric.Sink
}

// Deliver implements fabric.Sink.
func (t *tapSink) Deliver(p *packet.Packet) {
	t.c.NoteSent(p)
	t.next.Deliver(p)
}

// TapTX returns a sink that records every packet (NoteSent) and forwards
// it to next — splice it between the sender's egress and the impairment
// chain so the checker sees ground truth before any fault is injected.
func (c *Checker) TapTX(next fabric.Sink) fabric.Sink {
	return &tapSink{c: c, next: next}
}

// ObserveSegment is the delivery-point observation: install it as the
// receiving host's SegmentTap so every segment leaving the offload layer
// is audited before TCP sees it.
func (c *Checker) ObserveSegment(seg *packet.Segment) {
	if seg.Bytes == 0 {
		return // pure ACK / control: no ordering or byte content to audit
	}
	c.SegmentsSeen++
	st := c.flow(seg.Flow)

	// Conservation: every delivered payload range must lie inside the sent
	// coverage — the stack must not fabricate bytes.
	if !st.sentAny {
		c.violate(InvConservation, seg.Flow,
			fmt.Sprintf("delivered seq=%d len=%d on a flow that never sent data", seg.Seq, seg.Bytes))
		return
	}
	for _, r := range seg.PayloadRanges() {
		if !packet.SeqLEQ(st.sentISN, r.Seq) || !packet.SeqLEQ(r.Seq+uint32(r.Len), st.sentEnd) {
			c.violate(InvConservation, seg.Flow,
				fmt.Sprintf("delivered range [%d,%d) outside sent [%d,%d)",
					r.Seq, r.Seq+uint32(r.Len), st.sentISN, st.sentEnd))
		}
	}

	// Order: under StrictOrder every data segment must begin exactly at the
	// cumulative frontier — a later start is a hole (delivered ahead of
	// order), an earlier start is a duplicate or late straggler.
	if c.cfg.StrictOrder && seg.Seq != st.delivered {
		c.violate(InvOrder, seg.Flow,
			fmt.Sprintf("segment starts at %d, frontier is %d (delta %d)",
				seg.Seq, st.delivered, int32(seg.Seq-st.delivered)))
	}
	if packet.SeqLess(st.delivered, seg.EndSeq()) {
		st.delivered = seg.EndSeq()
	}
}

// TableProbe returns a closure auditing table t; install it as the
// offload's Probe hook so the audit runs after every state-mutating entry
// point. name distinguishes per-queue instances in reports.
func (c *Checker) TableProbe(name string, t TableView) func() {
	return func() {
		if err := t.CheckInvariants(); err != nil {
			c.violate(InvTable, packet.FiveTuple{}, name+": "+err.Error())
		}
	}
}

// CheckQuiescence asserts the event queue has drained; call it after
// traffic has stopped and the simulation has been given time to settle. A
// non-empty queue means a timer or rearm loop leaked.
func (c *Checker) CheckQuiescence() {
	if n := c.sim.Pending(); n > 0 {
		c.violate(InvQuiescence, packet.FiveTuple{},
			fmt.Sprintf("%d events still pending after traffic stopped", n))
	}
}

// CheckSegLeaks asserts the segment pool's live count is zero; call it at
// quiescence with packet.SegPool.Live(). Live segments at that point have
// lost their owner: no queue holds them and no future event will recycle
// them.
func (c *Checker) CheckSegLeaks(live int64) {
	if live != 0 {
		c.violate(InvSegLeak, packet.FiveTuple{},
			fmt.Sprintf("%d segments minted but never recycled at quiescence", live))
	}
}

// Total returns the number of invariant failures observed (including any
// past the maxViolations retention bound).
func (c *Checker) Total() int64 { return c.total }

// Count returns the failure count for one invariant.
func (c *Checker) Count(inv Invariant) int64 { return c.counts[inv] }

// Violations returns the retained violation records in occurrence order.
func (c *Checker) Violations() []Violation { return c.violations }

// FlowDelivered returns the cumulative delivery frontier minus the ISN for
// a flow — the in-order bytes the checker saw delivered.
func (c *Checker) FlowDelivered(ft packet.FiveTuple) int64 {
	st := c.flows[ft]
	if st == nil || !st.sentAny {
		return 0
	}
	return int64(st.delivered - st.sentISN)
}

// Summary renders the per-invariant counts deterministically (sorted by
// invariant name) for the run report.
func (c *Checker) Summary() string {
	if c.total == 0 {
		return "ok: 0 violations"
	}
	invs := make([]string, 0, len(c.counts))
	for inv := range c.counts {
		invs = append(invs, string(inv))
	}
	sort.Strings(invs)
	s := fmt.Sprintf("FAIL: %d violations (", c.total)
	for i, inv := range invs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", inv, c.counts[Invariant(inv)])
	}
	return s + ")"
}
