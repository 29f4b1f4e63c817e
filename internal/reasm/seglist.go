package reasm

import (
	"juggler/internal/packet"
	"juggler/internal/units"
)

// SegList is the paper's out-of-order queue: packets sorted by sequence
// number and eagerly merged into contiguous segments. The paper stores
// packets in a doubly-linked sk_buff list; an ordered slice of merged
// segments is semantically identical and keeps adjacent-merge operations
// O(queue length), which §3.2 argues is small in datacenters.
//
// Segments are minted from the simulation's shared packet.SegPool (pool is
// nil-safe, so a zero SegList still works), and the queue's own state is
// reusable: byte/packet totals are maintained incrementally so Bytes() and
// Pkts() are O(1), and Drain swaps in a spare backing array so the caller
// can return the drained one with RecycleDrained — steady-state flow churn
// never reallocates the slice.
//
// Invariants (checked by tests):
//   - segments are ordered by Seq;
//   - no two segments are mergeable (overlap-free, and any two adjacent
//     contiguous segments differ in options/CE, sealing, or size budget);
//   - nbytes/npkts equal the sums over queued segments.
//
// The first two hold strictly only for inserts that do not partially
// overlap a queued segment. A packet that overlaps one without being
// covered by it is stored as its own segment, possibly at the same Seq,
// and both copies are delivered; FuzzSegList pins that no byte is lost
// either way.
type SegList struct {
	segs   []*packet.Segment
	spare  []*packet.Segment // retired backing array awaiting reuse
	pool   *packet.SegPool
	nbytes int
	npkts  int
}

// Init binds an empty queue — a zero SegList embedded in a larger struct,
// say — to pool and returns it.
func (q *SegList) Init(pool *packet.SegPool) *SegList {
	q.pool = pool
	return q
}

// Len returns the number of segments queued.
func (q *SegList) Len() int { return len(q.segs) }

// Empty reports whether the queue holds nothing.
func (q *SegList) Empty() bool { return len(q.segs) == 0 }

// Head returns the first (lowest-sequence) segment, or nil.
func (q *SegList) Head() *packet.Segment {
	if len(q.segs) == 0 {
		return nil
	}
	return q.segs[0]
}

// PopHead removes and returns the first segment.
func (q *SegList) PopHead() *packet.Segment {
	s := q.segs[0]
	copy(q.segs, q.segs[1:])
	q.segs[len(q.segs)-1] = nil
	q.segs = q.segs[:len(q.segs)-1]
	q.nbytes -= s.Bytes
	q.npkts -= s.Pkts
	return s
}

// NextContiguous reports whether the second queued segment starts exactly
// at the head's end (the flush-cause-boundary test).
func (q *SegList) NextContiguous() bool {
	return len(q.segs) > 1 && q.segs[1].Seq == q.segs[0].EndSeq()
}

// findInsertPos returns the index of the first segment whose Seq is not
// before seq. The tail check first: in-order traffic (and the common
// tail-extension of a single queued segment) lands at or past the last
// segment's start, so most packets never enter the binary search.
func (q *SegList) findInsertPos(seq uint32) int {
	n := len(q.segs)
	if n == 0 || packet.SeqLess(q.segs[n-1].Seq, seq) {
		return n
	}
	// seq is at or before the last segment's start, so the answer is at
	// most n-1 — the binary search never needs to consider index n.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if packet.SeqLess(q.segs[mid].Seq, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert places p into the queue, merging with neighbours where the GRO
// merge rules allow. Exact duplicates are reported, not stored. fastPath
// reports a plain tail extension of the last segment, or the first segment
// of an empty queue — the same work standard GRO does on in-order traffic,
// which therefore carries no extra Juggler bookkeeping cost.
//
// On InsMerged or InsNew, Bytes/Pkts grow by exactly p.PayloadLen/1; on
// InsDuplicate they do not move. Callers (the core hot path) track
// aggregate buffered totals from the result alone.
func (q *SegList) Insert(p *packet.Packet) (res InsertResult, fastPath bool) {
	i := q.findInsertPos(p.Seq)
	// A covering segment starts at or before p.Seq: segs[i] (equal start)
	// or segs[i-1] (earlier start).
	if i < len(q.segs) && q.segs[i].Seq == p.Seq &&
		packet.SeqLEQ(p.EndSeq(), q.segs[i].EndSeq()) {
		return InsDuplicate, false
	}
	if i > 0 {
		prev := q.segs[i-1]
		if packet.SeqLEQ(prev.Seq, p.Seq) && packet.SeqLEQ(p.EndSeq(), prev.EndSeq()) {
			return InsDuplicate, false
		}
	}
	q.nbytes += p.PayloadLen
	q.npkts++

	// Try appending to the predecessor.
	if i > 0 && q.segs[i-1].CanAppend(p, units.TSOMaxBytes) {
		q.segs[i-1].Append(p)
		if i == len(q.segs) {
			return InsMerged, true
		}
		// The grown predecessor may now touch the successor.
		q.tryMergeAt(i - 1)
		return InsMerged, false
	}
	// Try prepending to the successor.
	if i < len(q.segs) && q.segs[i].CanPrepend(p, units.TSOMaxBytes) {
		q.segs[i].Prepend(p)
		// The grown successor may now touch the predecessor.
		if i > 0 {
			q.tryMergeAt(i - 1)
		}
		return InsMerged, false
	}
	// Standalone segment.
	seg := q.pool.FromPacket(p)
	q.segs = append(q.segs, nil)
	copy(q.segs[i+1:], q.segs[i:])
	q.segs[i] = seg
	return InsNew, q.Len() == 1
}

// tryMergeAt merges segs[i] with segs[i+1] when they are contiguous and
// compatible, closing a filled hole. The absorbed segment goes back to the
// pool — hole churn recycles instead of leaking garbage.
func (q *SegList) tryMergeAt(i int) {
	if i+1 >= len(q.segs) {
		return
	}
	a, b := q.segs[i], q.segs[i+1]
	if a.EndSeq() != b.Seq {
		return
	}
	if a.Sealed() || a.OptSig != b.OptSig || a.CE != b.CE ||
		a.Bytes+b.Bytes > units.TSOMaxBytes {
		return
	}
	a.Bytes += b.Bytes
	a.Pkts += b.Pkts
	a.Flags |= b.Flags
	a.AckSeq = b.AckSeq
	if b.FirstSentAt < a.FirstSentAt {
		a.FirstSentAt = b.FirstSentAt
	}
	if b.LastSentAt > a.LastSentAt {
		a.LastSentAt = b.LastSentAt
	}
	copy(q.segs[i+1:], q.segs[i+2:])
	q.segs[len(q.segs)-1] = nil
	q.segs = q.segs[:len(q.segs)-1]
	q.pool.Put(b)
}

// Drain detaches and returns all segments in sequence order, swapping in
// the spare backing array so the queue stays usable (and allocation-free)
// while the caller walks the drained slice. Callers hand the walked slice
// back through RecycleDrained once the segments are emitted.
func (q *SegList) Drain() []*packet.Segment {
	out := q.segs
	q.segs = q.spare[:0]
	q.spare = nil
	q.nbytes, q.npkts = 0, 0
	return out
}

// RecycleDrained returns a slice obtained from Drain for reuse. The
// segments themselves belong to whoever consumed them; only the backing
// array is retired here.
func (q *SegList) RecycleDrained(s []*packet.Segment) {
	for i := range s {
		s[i] = nil
	}
	if cap(s) > cap(q.spare) {
		q.spare = s[:0]
	}
}

// Reset returns any still-queued segments to the pool and empties the
// queue, preserving both backing arrays for reuse.
func (q *SegList) Reset() {
	for i, s := range q.segs {
		q.pool.Put(s)
		q.segs[i] = nil
	}
	q.segs = q.segs[:0]
	q.nbytes, q.npkts = 0, 0
}

// Pkts returns the total packet count queued — O(1), maintained at
// insert/pop/drain.
func (q *SegList) Pkts() int { return q.npkts }

// Bytes returns the total payload bytes queued — O(1).
func (q *SegList) Bytes() int { return q.nbytes }
