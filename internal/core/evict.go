package core

import (
	"time"

	"juggler/internal/telemetry"
)

// Retune is one live tuning adjustment from the adapt controller. Zero
// fields leave the corresponding knob unchanged (MaxIdleFlows 0 means
// "no idle-list bound", the static default).
type Retune struct {
	InseqTimeout time.Duration
	OfoTimeout   time.Duration
	// MaxIdleFlows, when positive, trims the inactive (post-merge) list
	// down to this many entries, evicting oldest-first — the adaptive
	// eviction-aggressiveness knob for quiet fabrics.
	MaxIdleFlows int
}

// Retune applies a live tuning adjustment. Changing a timeout re-files
// every flow holding packets under its new deadline (holdStart anchors
// are untouched — only the budget measured from them changes) and
// re-arms the timer, so the deadline-queue invariant holds across the
// transition; a deadline pulled into the past simply fires on the next
// timer pop. Trimming evicts inactive flows oldest-first; their queues
// are empty by the post-merge invariant, so no data moves.
func (j *Juggler) Retune(r Retune) {
	changed := false
	if r.InseqTimeout > 0 && r.InseqTimeout != j.cfg.InseqTimeout {
		j.cfg.InseqTimeout = r.InseqTimeout
		changed = true
	}
	if r.OfoTimeout > 0 && r.OfoTimeout != j.cfg.OfoTimeout {
		j.cfg.OfoTimeout = r.OfoTimeout
		changed = true
	}
	if changed {
		for _, id := range [...]listID{activeList, lossList} {
			for e := j.head(id); e != nil; e = j.next(e) {
				if !e.sl.Empty() {
					j.dq.Update(e, j.flowDeadline(e))
				}
			}
		}
		j.arm(j.dq.MinDeadline(), j.sim.Now()+1)
	}
	if r.MaxIdleFlows > 0 {
		for j.lists[inactiveList].n > r.MaxIdleFlows {
			j.evict(j.head(inactiveList), CauseIdleTrim)
		}
	}
	if j.Probe != nil {
		j.Probe()
	}
}

// evictOrder is each EvictionPolicy's victim preference over the three
// lists; evictOne takes the head (the oldest flow) of the first non-empty
// one.
var evictOrder = [...][3]listID{
	// The paper's policy (§4.3): post-merge flows first (empty, hole-free
	// queues), then active flows in FIFO order, loss-recovery flows only
	// as a last resort.
	EvictInactiveFirst: {inactiveList, activeList, lossList},
	// The ablation: active first, then loss recovery — deliberately
	// evicting flows with holes.
	EvictFIFO: {activeList, lossList, inactiveList},
}

// evictOne frees one table entry according to the eviction policy.
func (j *Juggler) evictOne() {
	for _, id := range evictOrder[j.cfg.Eviction] {
		if e := j.head(id); e != nil {
			j.evict(e, CauseTableFull)
			return
		}
	}
	panic("core: eviction with empty table")
}

// evict removes the flow, counts it against the list it was on, flushes
// all its packets to higher layers, and recycles the entry through the
// free list. cause names why for the forensics ring (table-full pressure
// vs adaptive idle trimming).
func (j *Juggler) evict(e *flowEntry, cause string) {
	*j.lists[e.list].evictions++
	if j.tel != nil {
		j.record(e, &telemetry.Record{Op: telemetry.OpEvict, Cause: cause,
			Seq: e.seqNext, EndSeq: e.seqNext, N: int64(e.sl.Pkts()), Note: e.phase.String()})
	}
	j.drain(e, &j.Stats.FlushEvict, CauseEvict, false)
	j.delist(e)
	j.dq.Remove(e)
	j.table.delete(e)
	j.releaseFlow(e)
}
