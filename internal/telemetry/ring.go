package telemetry

// ring is a bounded buffer that keeps the newest len(buf) values pushed:
// the flight recorder, the packet capture and the forensics decision rings
// all retain their tail through it.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, n)} }

// push stores *v, overwriting the oldest value once the ring is full. It
// takes a pointer so large values are copied once, into the slot.
func (r *ring[T]) push(v *T) {
	r.buf[r.next] = *v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// len returns the number of retained values.
func (r *ring[T]) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// items returns a copy of the retained values, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}
