package sim

import "math/bits"

// The near-future wheel sits in front of the 4-ary heap. Most events in a
// packet simulation are due within a few hundred nanoseconds — a port's
// tx-complete, a propagation delivery — while the heap also holds the
// RTO, TLP and delay-line events that fire (if ever) micro- to
// milliseconds later. Filing the near events in exact time buckets, the
// way a calendar queue (Brown, CACM 1988) or a hashed timing wheel
// (Varghese & Lauck, SOSP 1987) does, keeps them from sifting through
// those far ones.
//
// The wheel is 64 buckets of 64 ns. Its span is the 4.096 µs starting at
// the bucket that holds now (now &^ 63); an event due inside the span is
// filed in bucket (at >> 6) & 63, which names one 64 ns range only, since
// every wheel event lies in the span and the span never moves backwards.
// Each bucket is a fixed array kept sorted on (at, seq): inserted from
// the tail, popped at a head index. An event due beyond the span, or whose
// bucket is full, goes to the heap instead, and the ready event is the
// (at, seq)-minimum of the wheel's first event and the heap's root — the
// order is exactly that of one heap, whichever structure an event sits in.
const (
	wheelShift   = 6                // a bucket spans 1<<6 = 64 ns
	wheelBuckets = 64               // the span is 64 buckets: 4.096 µs
	wheelMask    = wheelBuckets - 1 // bucket index mask
	bucketCap    = 16               // events a bucket holds before the heap takes them
	inWheel      = -2               // Event.idx of an event filed in the wheel
	notQueued    = -1               // Event.idx of an event that ran or was cancelled
)

// wheel is the near-future half of the ready queue.
type wheel struct {
	occ  uint64                           // bit b set: bucket b holds an event
	n    int                              // events filed across all buckets
	head [wheelBuckets]uint8              // first live slot of each bucket
	tail [wheelBuckets]uint8              // one past the last live slot of each bucket
	slot *[wheelBuckets][bucketCap]*Event // allocated once, in New: filing never allocates
}

// near reports whether t, at or after now, falls inside the wheel's span.
func near(now, t Time) bool { return uint64(t>>wheelShift-now>>wheelShift) < wheelBuckets }

// bucketOf returns the bucket an event due at t is filed in.
func bucketOf(t Time) int { return int(t>>wheelShift) & wheelMask }

// add files e, due inside the span, in its bucket in (at, seq) order.
// It returns false, filing nothing, when the bucket's last slot is taken.
// Slots popped at the head are reused only once the bucket empties; in
// the benchmark's runs no bucket ever reached its last slot.
func (w *wheel) add(e *Event) bool {
	b := bucketOf(e.at)
	bk := &w.slot[b]
	h, t := int(w.head[b]), int(w.tail[b])
	if t == bucketCap {
		return false
	}
	i := t
	for i > h && eventBefore(e, bk[i-1]) {
		bk[i] = bk[i-1]
		i--
	}
	bk[i] = e
	w.tail[b] = uint8(t + 1)
	w.occ |= 1 << uint(b)
	w.n++
	e.idx = inWheel
	return true
}

// first returns the earliest event in the wheel, or nil when it is empty:
// the head of the first occupied bucket at or after now's.
func (w *wheel) first(now Time) *Event {
	if w.occ == 0 {
		return nil
	}
	c := bucketOf(now)
	b := (c + bits.TrailingZeros64(bits.RotateLeft64(w.occ, -c))) & wheelMask
	return w.slot[b][w.head[b]]
}

// popFirst removes e, which first just returned.
func (w *wheel) popFirst(e *Event) {
	b := bucketOf(e.at)
	h := w.head[b]
	w.slot[b][h] = nil
	if h++; h == w.tail[b] {
		w.head[b], w.tail[b] = 0, 0
		w.occ &^= 1 << uint(b)
	} else {
		w.head[b] = h
	}
	w.n--
}

// remove unlinks e from wherever it sits in its bucket.
func (w *wheel) remove(e *Event) {
	b := bucketOf(e.at)
	bk := &w.slot[b]
	h, t := int(w.head[b]), int(w.tail[b])
	i := h
	for bk[i] != e {
		i++
	}
	copy(bk[i:t-1], bk[i+1:t])
	t--
	bk[t] = nil
	if t == h {
		w.head[b], w.tail[b] = 0, 0
		w.occ &^= 1 << uint(b)
	} else {
		w.tail[b] = uint8(t)
	}
	w.n--
}
