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
// Slots carry their ordering key (deadline, arming seq) beside the owner,
// so ordering them never touches an owner. They live in two sorted FIFO
// lanes in front of an inlined 4-ary min-heap. A caller that arms at a few
// fixed offsets from a clock that only moves forward — Juggler arms at
// holdStart+inseq_timeout or holdStart+ofo_timeout — arms each class in
// deadline order, and arming seqs only grow, so an arm no earlier than
// some lane's tail is appended to the lane with the latest such tail (an
// empty lane when none fits) and stays sorted there. Only the rest — a
// deadline moved earlier from an old anchor — sift through the heap. The
// queue's earliest slot is the (deadline, seq) minimum of the heap's root
// and the lane heads, so the order is exactly that of one heap, wherever
// a slot sits.
//
// Owners hold no slot position: a re-arm files a fresh slot and the old
// one goes stale, recognisable because its seq no longer matches the
// owner's item. Stale slots are dropped as they reach the front, and the
// queue compacts in place before it holds more than 2·Len()+64 slots,
// lanes and heap together. The backing arrays are reused, so steady-state
// operation is allocation-free.
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
	heap  []dqSlot[T]
	lanes [dqLanes]dqLane[T]
	item  func(T) *DeadlineItem
	seq   uint64
	live  int
}

const (
	// dqLanes is the number of sorted lanes: one per Juggler timeout class.
	dqLanes = 2
	// dqInitCap is the slot capacity the heap and each lane start with.
	// With none, the heap's first slot — it fills late, since the lanes
	// take the early arms — is allocated in a run's steady state; 4 is
	// the least capacity that keeps every benchmark workload's
	// allocation count at the one-heap queue's.
	dqInitCap = 4
	// dqHeap names the heap as the source of a slot, beside lane indexes.
	dqHeap = dqLanes
)

// dqSlot is one queue entry. It is live while seq equals its owner's
// item seq and stale once the owner is re-armed, removed or popped.
type dqSlot[T any] struct {
	at  Time
	seq uint64
	v   T
}

func (a *dqSlot[T]) before(b *dqSlot[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// dqLane is a FIFO of slots sorted on (at, seq): appended at the tail,
// popped at head. Popped slots are reclaimed when the lane empties, or
// by moving the occupied part down to the start once the tail reaches
// the capacity.
type dqLane[T any] struct {
	s    []dqSlot[T]
	head int
}

// NewDeadlineQueue creates an empty queue; item must return the embedded
// DeadlineItem of an owner (always the same one for the same owner).
func NewDeadlineQueue[T any](item func(T) *DeadlineItem) *DeadlineQueue[T] {
	if item == nil {
		panic("sim: nil deadline item accessor")
	}
	q := &DeadlineQueue[T]{item: item, heap: make([]dqSlot[T], 0, dqInitCap)}
	for i := range q.lanes {
		q.lanes[i].s = make([]dqSlot[T], 0, dqInitCap)
	}
	return q
}

// Len returns the number of queued owners.
func (q *DeadlineQueue[T]) Len() int { return q.live }

// slots returns the number of slots held, live and stale: the heap's plus
// every lane's occupied part.
func (q *DeadlineQueue[T]) slots() int {
	n := len(q.heap)
	for i := range q.lanes {
		n += len(q.lanes[i].s) - q.lanes[i].head
	}
	return n
}

// MinDeadline returns the earliest queued deadline, or 0 when empty. It
// drops stale slots off the front first, so the answer is exact.
func (q *DeadlineQueue[T]) MinDeadline() Time {
	for {
		s, src := q.first()
		if s == nil {
			return 0
		}
		if q.item(s.v).seq == s.seq {
			return s.at
		}
		q.drop(src)
	}
}

// PeekMinDeadline returns what MinDeadline returns without dropping any
// stale slot, in time linear in the slots held: it is for invariant
// checkers, which must leave the queue as they found it.
func (q *DeadlineQueue[T]) PeekMinDeadline() Time {
	var m *dqSlot[T]
	live := func(s *dqSlot[T]) bool { return q.item(s.v).seq == s.seq }
	for i := range q.heap {
		if s := &q.heap[i]; live(s) && (m == nil || s.before(m)) {
			m = s
		}
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		for k := l.head; k < len(l.s); k++ { // sorted: the first live slot is the lane's minimum
			if s := &l.s[k]; live(s) {
				if m == nil || s.before(m) {
					m = s
				}
				break
			}
		}
	}
	if m == nil {
		return 0
	}
	return m.at
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
	s := dqSlot[T]{at: at, seq: q.seq, v: v}
	// Best fit: the lane with the latest tail at or before at keeps the
	// lanes' tails spread over the arming classes; failing that, an
	// empty lane; failing both, the heap.
	fit, empty, tail := -1, -1, Time(0)
	for i := range q.lanes {
		l := &q.lanes[i]
		switch n := len(l.s); {
		case n == l.head:
			empty = i
		case l.s[n-1].at <= at && (fit < 0 || l.s[n-1].at > tail):
			fit, tail = i, l.s[n-1].at
		}
	}
	if fit < 0 {
		fit = empty
	}
	if fit >= 0 {
		q.lanes[fit].push(s)
	} else {
		q.push(s)
	}
	q.bound()
}

// push appends s to the lane. A lane whose tail reaches the capacity
// first moves its occupied part down to the start, if popped slots make
// up at least an eighth of it; otherwise append grows it. A move then
// costs at most seven slot copies per append amortised, and a lane grows
// only past 8/7 of what it holds.
func (l *dqLane[T]) push(s dqSlot[T]) {
	if len(l.s) == cap(l.s) && 8*l.head >= len(l.s) {
		n := copy(l.s, l.s[l.head:])
		clear(l.s[n:])
		l.s, l.head = l.s[:n], 0
	}
	l.s = append(l.s, s)
}

// push files s in the heap.
func (q *DeadlineQueue[T]) push(s dqSlot[T]) {
	h := append(q.heap, s)
	i := len(h) - 1
	for i > 0 { // sift up
		p := (i - 1) >> 2
		if !s.before(&h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i], q.heap = s, h
}

// Remove takes owner v out of the queue; absent owners are a no-op. Its
// slot stays behind, stale, until it reaches the front or a compaction.
func (q *DeadlineQueue[T]) Remove(v T) {
	if it := q.item(v); it.seq != 0 {
		it.at, it.seq = 0, 0
		q.live--
		q.bound()
	}
}

// PopDue removes every owner whose deadline is <= now and passes it to
// visit, earliest (then in arming order) first. A stale front slot at a
// later deadline proves no live owner is due. visit must not mutate the
// queue.
func (q *DeadlineQueue[T]) PopDue(now Time, visit func(T)) {
	for {
		s, src := q.first()
		if s == nil || s.at > now {
			break
		}
		v, seq := s.v, s.seq
		q.drop(src)
		if it := q.item(v); it.seq == seq {
			it.at, it.seq = 0, 0
			q.live--
			visit(v)
		}
	}
	q.bound()
}

// first returns the queue's earliest slot — the (at, seq) minimum of the
// heap's root and the lane heads — and its source, a lane index or dqHeap;
// nil when the queue holds no slot.
func (q *DeadlineQueue[T]) first() (*dqSlot[T], int) {
	var m *dqSlot[T]
	src := dqHeap
	if len(q.heap) > 0 {
		m = &q.heap[0]
	}
	for i := range q.lanes {
		if l := &q.lanes[i]; l.head < len(l.s) {
			if s := &l.s[l.head]; m == nil || s.before(m) {
				m, src = s, i
			}
		}
	}
	return m, src
}

// drop removes the front slot of src, a lane index or dqHeap. A lane that
// empties starts over at the beginning of its array.
func (q *DeadlineQueue[T]) drop(src int) {
	if src == dqHeap {
		q.pop()
		return
	}
	l := &q.lanes[src]
	l.s[l.head] = dqSlot[T]{}
	if l.head++; l.head == len(l.s) {
		l.s, l.head = l.s[:0], 0
	}
}

// pop removes the heap's top slot.
func (q *DeadlineQueue[T]) pop() {
	h, n := q.heap, len(q.heap)-1
	last := h[n]
	h[n], q.heap = dqSlot[T]{}, h[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
}

// bound compacts the queue in place once it holds more than 2·Len()+64
// slots. Stale slots then outnumber live ones, so packing the live ones —
// each lane in its order, the heap re-heapified — costs O(1) per stale
// slot amortised.
func (q *DeadlineQueue[T]) bound() {
	if q.slots() <= 2*q.live+64 {
		return
	}
	q.heap = q.pack(q.heap, 0)
	h := q.heap
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i, h[i])
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		l.s, l.head = q.pack(l.s, l.head), 0
	}
}

// pack moves the live slots of s[from:], in order, to the start of s,
// clears the rest and returns the packed prefix.
func (q *DeadlineQueue[T]) pack(s []dqSlot[T], from int) []dqSlot[T] {
	n := 0
	for i := from; i < len(s); i++ {
		if q.item(s[i].v).seq == s[i].seq {
			s[n] = s[i]
			n++
		}
	}
	clear(s[n:])
	return s[:n]
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
