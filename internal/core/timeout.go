package core

import (
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// PollComplete implements gro.Offload: timeout conditions are checked at
// polling completions (§4.2.2). It is also the callback of the one
// high-resolution timer per gro_table.
func (j *Juggler) PollComplete() {
	j.checkTimeouts()
	if j.Probe != nil {
		j.Probe()
	}
}

// flowDeadline returns the next timeout instant for a flow, or 0 when it
// holds nothing.
func (j *Juggler) flowDeadline(e *flowEntry) sim.Time {
	return j.deadlineForHead(e, e.sl.Head())
}

// deadlineForHead is flowDeadline with the queue head already in hand,
// for callers that just probed it.
func (j *Juggler) deadlineForHead(e *flowEntry, head *packet.Segment) sim.Time {
	if head == nil {
		return 0
	}
	if head.Seq == e.seqNext {
		return e.holdStart.Add(j.cfg.InseqTimeout)
	}
	return e.holdStart.Add(j.cfg.OfoTimeout)
}

// updateDeadline re-files the flow in the deadline queue under its current
// flowDeadline. Every site that can change a flow's queue head, seq_next
// or holdStart calls it before returning to the event loop, maintaining
// the invariant that the queue holds exactly the flows with non-empty
// out-of-order queues, each at its flowDeadline. A deadline of Time 0 is
// legal (zero timeouts at the simulation origin: due immediately).
func (j *Juggler) updateDeadline(e *flowEntry) {
	head := e.sl.Head()
	if head == nil {
		j.dq.Remove(e)
		return
	}
	j.dq.Update(e, j.deadlineForHead(e, head))
}

// arm ensures the timer fires no later than deadline d (0: none), and
// not before floor: a deadline already passed fires at floor. The
// receive path passes now; the timer path passes now+1, so degenerate
// zero timeouts re-fire on the next instant rather than spin.
func (j *Juggler) arm(d, floor sim.Time) {
	if d == 0 {
		return
	}
	if d < floor {
		d = floor
	}
	if !j.timer.Pending() || d < j.timer.Deadline() {
		j.timer.ResetAt(d)
	}
}

// checkTimeouts applies rows 5 and 6 of Table 2 to every flow whose
// deadline has arrived, then re-arms the timer for the earliest remaining
// deadline. The due flows come from the deadline queue in O(expired) and
// expire in sortDue's order.
func (j *Juggler) checkTimeouts() {
	now := j.sim.Now()
	due := j.due[:0]
	j.dq.PopDue(now, func(e *flowEntry) { due = append(due, e) })
	j.sortDue(due)
	for _, e := range due {
		j.expireFlow(e, now)
	}
	// Expiry may have left residue (e.g. an in-sequence run flushed but a
	// hole remains): re-file every touched flow under its new deadline.
	for i, e := range due {
		j.updateDeadline(e)
		due[i] = nil
	}
	j.due = due[:0]
	j.arm(j.dq.MinDeadline(), now+1)
}

// sortDue imposes the expiry order on the due set: flows on the active
// list before flows on the loss list, FIFO (ascending push order) within
// each. The order is policy — it fixes which flow's segments, statistics
// and telemetry come first when several deadlines fall due at one
// instant. At flow scale the set is not small: on the benchmark's
// rx-flowscale workload a timer poll's due set holds 223 flows on
// average (median 122, p99 972, max 1 028 over 42 008 polls). Insertion
// sort stays cheap there, and allocation-free, because the set arrives
// close to listSeq order: PopDue yields it by deadline, and a flow
// shifts 17 places on average (1.6e8 shifts for 9.3e6 expiries), so the
// sort costs O(n + shifts), not O(n²).
func (j *Juggler) sortDue(due []*flowEntry) {
	rank := func(e *flowEntry) int {
		if e.list == lossList {
			return 1
		}
		return 0
	}
	for i := 1; i < len(due); i++ {
		e := due[i]
		re, se := rank(e), e.listSeq
		k := i
		for k > 0 && (rank(due[k-1]) > re || (rank(due[k-1]) == re && due[k-1].listSeq > se)) {
			due[k] = due[k-1]
			k--
		}
		due[k] = e
	}
}

// expireFlow applies the timeout flushes to one flow at time now.
func (j *Juggler) expireFlow(e *flowEntry, now sim.Time) {
	head := e.sl.Head()
	if head == nil {
		return
	}
	// Row 5: in-sequence data held longer than inseq_timeout.
	if head.Seq == e.seqNext && now.Sub(e.holdStart) >= j.cfg.InseqTimeout {
		if j.tel != nil {
			j.record(e, &telemetry.Record{Op: telemetry.OpTimeout, Cause: CauseInseq,
				Seq: head.Seq, EndSeq: head.EndSeq(), N: int64(now.Sub(e.holdStart)),
				Note: "held ns in N"})
		}
		for {
			head = e.sl.Head()
			if head == nil || head.Seq != e.seqNext {
				break
			}
			j.flushHead(e, &j.Stats.FlushInseqTimeout, CauseInseq)
		}
	}
	head = e.sl.Head()
	if head == nil {
		return
	}
	// Row 6: stuck on a hole longer than ofo_timeout.
	if head.Seq != e.seqNext && now.Sub(e.holdStart) >= j.cfg.OfoTimeout {
		j.ofoExpire(e)
	}
}

// ofoExpire flushes the entire out-of-order queue and moves the flow to
// loss recovery (§4.2.5, Figure 7).
func (j *Juggler) ofoExpire(e *flowEntry) {
	j.Stats.OfoTimeouts++
	if j.tel != nil {
		j.record(e, &telemetry.Record{Op: telemetry.OpTimeout, Cause: CauseOfo,
			Seq: e.seqNext, EndSeq: e.seqNext,
			N: int64(j.sim.Now().Sub(e.holdStart)), Note: "held ns in N, queue drains"})
	}
	firstMissing := e.seqNext
	j.drain(e, &j.Stats.FlushOfoTimeout, CauseOfo, true)
	e.holdStart = j.sim.Now()

	switch e.phase {
	case PhaseLossRecovery:
		// Best effort: keep the original first hole.
	case PhaseBuildUp, PhaseActiveMerge:
		note := "active-merge>loss-recovery"
		if e.phase == PhaseBuildUp {
			note = "build-up>loss-recovery"
		}
		e.lostSeq = firstMissing
		j.relist(e, lossList)
		e.phase = PhaseLossRecovery
		j.Stats.LossRecoveryEntered++
		if j.tel != nil {
			j.record(e, &telemetry.Record{Op: telemetry.OpPhase, Cause: CauseOfo,
				Seq: firstMissing, EndSeq: firstMissing, Note: note})
		}
	case PhasePostMerge:
		panic("core: ofo expiry with empty queue")
	}
}

// drain flushes e's whole out-of-order queue up the stack in sequence
// order, counting each segment in *counter (nil: uncounted) and recording
// cause in the forensics ring. With advance, seq_next moves past every
// flushed byte. Callers refresh the flow's deadline-queue position.
func (j *Juggler) drain(e *flowEntry, counter *int64, cause string, advance bool) {
	j.buffered -= e.sl.Bytes()
	j.bufferedPkts -= e.sl.Pkts()
	drained := e.sl.Drain()
	for _, seg := range drained {
		if counter != nil {
			*counter++
		}
		if advance {
			e.seqNext = packet.SeqMax(e.seqNext, seg.EndSeq())
		}
		j.emitMerged(e, seg, cause)
	}
	e.sl.RecycleDrained(drained)
}
