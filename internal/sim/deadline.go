package sim

// DeadlineItem is the bookkeeping a DeadlineQueue keeps inside each
// tracked object: the armed deadline and the arming seq of the owner's one
// live heap slot, 0 meaning "not queued", so the zero value is valid. Embed
// one per queue an object can be on and hand the accessor to the queue.
type DeadlineItem struct {
	at  Time
	seq uint64
}

// Deadline returns the armed deadline, or 0 when the item is not queued.
func (it *DeadlineItem) Deadline() Time {
	if it.seq == 0 {
		return 0
	}
	return it.at
}

// Queued reports whether the item currently sits in a queue.
func (it *DeadlineItem) Queued() bool { return it.seq != 0 }

// DeadlineQueue tracks the earliest deadline over a dynamic set of objects
// — the role the kernel's hrtimer timerqueue (an rbtree keyed on expiry)
// plays for its timer wheel. It is the facility behind Juggler's O(expired)
// timeout processing: one Update per deadline change, MinDeadline for
// arming the single hardware (sim.Timer) deadline, and PopDue walking only
// the expired prefix.
//
// It is an inlined 4-ary min-heap of slots that carry their ordering key
// (deadline, arming seq) beside the owner, so a sift never touches an
// owner. Owners hold no heap position: a re-arm pushes a fresh slot and
// the old one goes stale, recognisable because its seq no longer matches
// the owner's item. Stale slots are dropped as they reach the top, and the
// queue compacts in place before it holds more than 2·Len()+64 slots. The
// backing array is reused, so steady-state operation is allocation-free.
//
// Ties break by arming seq: PopDue visits equal deadlines in re-arm order.
// That is mechanism, not policy; a caller that cares about the order of
// simultaneous expiries imposes its own, as core.sortDue does (active
// before loss, then FIFO by list push order).
//
// The queue is generic over the owner type; the item accessor returns the
// embedded DeadlineItem, so the queue is intrusive without the owner
// importing anything beyond this package. An item belongs to one queue.
type DeadlineQueue[T any] struct {
	heap []dqSlot[T]
	item func(T) *DeadlineItem
	seq  uint64
	live int
}

// dqSlot is one heap entry. It is live while seq equals its owner's
// item seq and stale once the owner is re-armed, removed or popped.
type dqSlot[T any] struct {
	at  Time
	seq uint64
	v   T
}

func (a *dqSlot[T]) before(b *dqSlot[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// NewDeadlineQueue creates an empty queue; item must return the embedded
// DeadlineItem of an owner (always the same one for the same owner).
func NewDeadlineQueue[T any](item func(T) *DeadlineItem) *DeadlineQueue[T] {
	if item == nil {
		panic("sim: nil deadline item accessor")
	}
	return &DeadlineQueue[T]{item: item}
}

// Len returns the number of queued owners.
func (q *DeadlineQueue[T]) Len() int { return q.live }

// MinDeadline returns the earliest queued deadline, or 0 when empty. It
// drops stale slots off the top first, so the answer is exact.
func (q *DeadlineQueue[T]) MinDeadline() Time {
	for len(q.heap) > 0 {
		if top := &q.heap[0]; q.item(top.v).seq == top.seq {
			return top.at
		}
		q.pop()
	}
	return 0
}

// Update arms or moves owner v to deadline at, inserting it when absent.
// Any Time is a valid deadline, including 0 (already due); disarming is
// Remove's job. Re-arming at an unchanged deadline is a no-op, so callers
// can invoke Update unconditionally after any state change.
func (q *DeadlineQueue[T]) Update(v T, at Time) {
	it := q.item(v)
	if it.seq != 0 && it.at == at {
		return
	}
	if it.seq == 0 {
		q.live++
	}
	q.seq++
	it.at, it.seq = at, q.seq
	h := append(q.heap, dqSlot[T]{at: at, seq: q.seq, v: v})
	i := len(h) - 1
	s := h[i]
	for i > 0 { // sift up
		p := (i - 1) >> 2
		if !s.before(&h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i], q.heap = s, h
	q.bound()
}

// Remove takes owner v out of the queue; absent owners are a no-op. Its
// slot stays behind, stale, until it reaches the top or a compaction.
func (q *DeadlineQueue[T]) Remove(v T) {
	if it := q.item(v); it.seq != 0 {
		it.at, it.seq = 0, 0
		q.live--
		q.bound()
	}
}

// PopDue removes every owner whose deadline is <= now and passes it to
// visit, earliest (then in arming order) first. A stale top at a later
// deadline proves no live owner is due. visit must not mutate the queue.
func (q *DeadlineQueue[T]) PopDue(now Time, visit func(T)) {
	for len(q.heap) > 0 && q.heap[0].at <= now {
		s := q.pop()
		if it := q.item(s.v); it.seq == s.seq {
			it.at, it.seq = 0, 0
			q.live--
			visit(s.v)
		}
	}
	q.bound()
}

// pop removes and returns the top slot.
func (q *DeadlineQueue[T]) pop() dqSlot[T] {
	h, n := q.heap, len(q.heap)-1
	top, last := h[0], h[n]
	h[n], q.heap = dqSlot[T]{}, h[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// bound compacts the heap in place once it holds more than 2·Len()+64
// slots. Stale slots then outnumber live ones, so packing the live ones
// and re-heapifying costs O(1) per stale slot amortised.
func (q *DeadlineQueue[T]) bound() {
	h := q.heap
	if len(h) <= 2*q.live+64 {
		return
	}
	n := 0
	for i := range h {
		if q.item(h[i].v).seq == h[i].seq {
			h[n] = h[i]
			n++
		}
	}
	clear(h[n:])
	q.heap = h[:n]
	for i := (n - 2) >> 2; i >= 0; i-- {
		q.siftDown(i, h[i])
	}
}

// siftDown places s in the hole at i or below it: at each level the
// smallest of up to 4 children moves up.
func (q *DeadlineQueue[T]) siftDown(i int, s dqSlot[T]) {
	h := q.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&s) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = s
}
