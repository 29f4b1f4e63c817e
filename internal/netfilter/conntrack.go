// Package netfilter models the stateful packet-filtering layer that sits
// between GRO and the protocol stack (Figure 2): iptables modules and
// nf_conntrack's TCP window tracking.
//
// §3.1 of the paper argues that fixing reordering *inside* the GRO layer
// is the right architecture partly because "several modules after GRO
// (iptables modules, stateful connection tracking conntrack) rely on
// in-order delivery to correctly infer TCP state machine for stateful
// packet filtering". This package makes that argument measurable: a
// conntrack instance inspecting the post-offload segment stream counts
// (and, in strict mode, drops) segments that arrive out of window — with a
// vanilla stack under reordering they are frequent; behind Juggler they
// all but disappear.
package netfilter

import (
	"juggler/internal/packet"
)

// Verdict is conntrack's decision for one segment.
type Verdict uint8

// Verdicts, mirroring netfilter's ACCEPT / INVALID semantics.
const (
	// VerdictAccept means the segment matched the tracked connection
	// state.
	VerdictAccept Verdict = iota
	// VerdictInvalid means the segment was out of the expected window —
	// the state machine could not account for it. Strict deployments drop
	// these (the failure mode the paper warns about).
	VerdictInvalid
)

// Config tunes a Conntrack instance.
type Config struct {
	// Strict drops INVALID segments instead of merely counting them.
	Strict bool
}

// maxConns bounds the connection table, like
// net.netfilter.nf_conntrack_max. Beyond it the least recently touched
// entry is recycled ("nf_conntrack: table full, dropping packet" is the
// DoS the paper cites).
const maxConns = 4096

// Stats are cumulative counters.
type Stats struct {
	Accepted int64
	Invalid  int64
	Dropped  int64 // only in strict mode
	Created  int64
	Recycled int64
}

// connState is one tracked connection's window state.
type connState struct {
	key     packet.FiveTuple
	nextSeq uint32

	prev, next *connState
}

// Conntrack is a stateful TCP window tracker over the segment stream.
type Conntrack struct {
	cfg   Config
	table map[packet.FiveTuple]*connState

	// Intrusive LRU list: head = least recently used.
	lruHead, lruTail *connState

	Stats Stats
}

// New creates a tracker.
func New(cfg Config) *Conntrack {
	return &Conntrack{cfg: cfg, table: map[packet.FiveTuple]*connState{}}
}

// Len returns the tracked connection count.
func (ct *Conntrack) Len() int { return len(ct.table) }

// Inspect classifies one segment and updates connection state. When it
// returns VerdictInvalid in strict mode the caller must not deliver the
// segment (Stats.Dropped is incremented here).
func (ct *Conntrack) Inspect(seg *packet.Segment) Verdict {
	st, created := ct.lookup(seg.Flow)
	if created {
		// A new connection adopts its first segment's sequence (we join
		// mid-stream; there is no handshake to anchor on).
		st.nextSeq = seg.Seq
	}
	verdict := VerdictAccept

	switch {
	case seg.Bytes == 0:
		// Pure ACKs carry no sequence-space claim we track.
	case packet.SeqLEQ(seg.Seq, st.nextSeq):
		// In order (or a retransmission overlapping delivered data).
		if packet.SeqLess(st.nextSeq, seg.EndSeq()) {
			st.nextSeq = seg.EndSeq()
		}
	default:
		verdict = VerdictInvalid
		// Like nf_conntrack's non-strict mode, adopt the new edge so a
		// single jump does not invalidate the rest of the stream.
		st.nextSeq = seg.EndSeq()
	}

	if verdict == VerdictAccept {
		ct.Stats.Accepted++
	} else {
		ct.Stats.Invalid++
		if ct.cfg.Strict {
			ct.Stats.Dropped++
		}
	}
	return verdict
}

// ShouldDrop reports whether a verdict leads to a drop under the config.
func (ct *Conntrack) ShouldDrop(v Verdict) bool {
	return ct.cfg.Strict && v == VerdictInvalid
}

// lookup fetches or creates the connection entry, maintaining the LRU.
func (ct *Conntrack) lookup(ft packet.FiveTuple) (st *connState, created bool) {
	if st, ok := ct.table[ft]; ok {
		ct.moveToBack(st)
		return st, false
	}
	if len(ct.table) >= maxConns {
		victim := ct.lruHead
		ct.unlink(victim)
		delete(ct.table, victim.key)
		ct.Stats.Recycled++
	}
	st = &connState{key: ft}
	ct.table[ft] = st
	ct.pushBack(st)
	ct.Stats.Created++
	return st, true
}

func (ct *Conntrack) pushBack(st *connState) {
	st.prev = ct.lruTail
	st.next = nil
	if ct.lruTail != nil {
		ct.lruTail.next = st
	} else {
		ct.lruHead = st
	}
	ct.lruTail = st
}

func (ct *Conntrack) unlink(st *connState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		ct.lruHead = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		ct.lruTail = st.prev
	}
	st.prev, st.next = nil, nil
}

func (ct *Conntrack) moveToBack(st *connState) {
	if ct.lruTail == st {
		return
	}
	ct.unlink(st)
	ct.pushBack(st)
}
