// Package sim implements the deterministic discrete-event simulation engine
// on which the entire stack runs.
//
// The engine is single-threaded: events are executed one at a time in
// (time, insertion-order) order, so every experiment is exactly reproducible
// given its seed. Components schedule future work with Schedule (a plain
// func(), for cold callers) or ScheduleArg (a function bound once plus a
// per-event argument, for per-packet paths), and cancel pending work via
// the returned *Event handle or a Timer.
//
// The ready queue is two structures with one order. Events due within
// 4.096 µs — a packet's tx-complete and propagation, most of the traffic —
// are filed in a near-future wheel of 64 exact 64 ns buckets (wheel.go);
// later ones, the RTO/TLP timers and held delay-line packets, go to an
// inlined 4-ary heap of *Event with no interface boxing. The next event is
// the (time, insertion-order) minimum of the wheel's first bucket head and
// the heap's root, so a hop event never sifts through the far timers and
// the execution order is the one a single heap gives. The queue holds only
// events that will run: Cancel unlinks its event at once and a pending
// Timer is re-keyed, the way the kernel timerqueue dequeues a cancelled
// hrtimer, so the queue's size is the number of live events and not the
// number of timers re-armed in the last few milliseconds. Executed and
// cancelled events are recycled through a per-Sim free list, and the
// wheel's buckets are allocated once, in New. A schedule+execute cycle
// therefore allocates nothing once warm (TestScheduleStepZeroAlloc) —
// provided the caller does not mint a closure per event, which is what
// ScheduleArg is for: a fabric hop and a host segment dispatch are pinned
// at zero allocations by TestFabricHopZeroAlloc and
// TestHostDispatchZeroAlloc.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is absolute simulation time in nanoseconds since the start of the
// run. It is kept distinct from time.Duration (which the API uses for
// relative delays) so the two cannot be mixed up.
type Time int64

// Sub returns the span from t0 to t as a time.Duration.
func (t Time) Sub(t0 Time) time.Duration { return time.Duration(t - t0) }

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Seconds converts t to floating-point seconds (for reporting only).
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time with microsecond resolution for traces.
func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// Event is a scheduled callback. The zero Event is not valid; events are
// created by the Sim's Schedule family and may be cancelled with Cancel
// before they run.
//
// An Event carries its callback as a function of one argument plus that
// argument. A component binds the function once, at construction, and
// passes the per-event datum (the packet on the wire, the segment being
// serviced) as the argument, so scheduling mints no closure; a
// pointer-shaped argument does not box. Schedule's plain func() rides the
// same representation as the argument of a static trampoline.
//
// Handle lifetime: a *Event is valid until the event fires or Cancel
// returns, whichever comes first. At that moment the Sim takes it out of
// the ready queue and recycles it through its free list, and the very next
// Schedule may hand the same pointer to an unrelated caller — calling
// Cancel on a handle kept past that point would cancel that unrelated
// event. A holder must therefore drop its reference when it cancels and
// from inside the callback, as Timer does in Stop and fireTimer.
type Event struct {
	at    Time
	seq   uint64 // tie-break: FIFO among events at the same instant
	fn    func(any)
	arg   any
	owner *Sim
	idx   int // slot in owner.queue; inWheel when filed in the wheel; notQueued when the handle is dead
}

// Cancel removes the event from the ready queue so it never runs, and
// recycles it. Cancelling an event that already ran (or was already
// cancelled) is a no-op. Returns true if the event was still pending.
func (e *Event) Cancel() bool {
	if e == nil || e.idx == notQueued {
		return false
	}
	s := e.owner
	s.unlink(e)
	s.recycle(e)
	return true
}

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.idx != notQueued }

// Time returns the instant the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// eventBefore is the queue order: earliest time first, FIFO within an
// instant. Kept free of interface indirection so the compiler can inline it
// into the sift loops.
func eventBefore(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Sim is a discrete-event simulator instance. Create one with New; it is
// not safe for concurrent use (the whole simulation is single-threaded by
// design — parallelism lives one level up, in internal/sweep, which runs
// one Sim per parameter point).
type Sim struct {
	now     Time
	wheel   wheel    // events due within the wheel's 4.096 µs span
	queue   []*Event // 4-ary min-heap on (at, seq): later events, and overflow of a full bucket
	free    []*Event // recycled events, reused by Schedule
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// Executed counts events run so far; useful as a progress metric and
	// as a runaway-loop guard in tests.
	Executed uint64

	// MaxEvents aborts Run with a panic when non-zero and exceeded. Tests
	// set it to catch accidental event storms.
	MaxEvents uint64

	// Telemetry is the per-run telemetry sink slot. The harness attaches a
	// *telemetry.Sink here (via telemetry.Attach) before constructing the
	// topology; components read it once at construction time with
	// telemetry.FromSim. The field is typed any so the sim engine does not
	// depend on the telemetry package (which depends on sim for Time).
	Telemetry any

	// PacketPool is the per-run packet free-list slot, managed by
	// packet.PoolFromSim exactly as Telemetry is by telemetry.FromSim: the
	// engine stays ignorant of the packet package while every component of
	// one simulation shares a single recycler.
	PacketPool any

	// SegmentPool is the per-run segment free-list slot, managed by
	// packet.SegPoolFromSim: the offload layer mints Segments from it and
	// the consumer that ends a segment's life returns it.
	SegmentPool any

	// StampSampler is the per-run hop-stamp sampler slot, managed by
	// packet.AttachStampSampler / packet.StampSamplerFromSim. Left nil
	// (the default, and always for a 1-in-1 rate) every wire packet
	// carries hop timestamps; when set, the NIC TX marks all but one in N
	// packets SkipStamps so the forensics layers skip them for free.
	StampSampler any
}

// New creates a simulator whose random source is seeded with seed.
// Identical seeds yield bit-identical runs.
func New(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		wheel: wheel{slot: new([wheelBuckets][bucketCap]*Event)},
	}
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. All stochastic
// decisions in the stack (hashing salt, Poisson arrivals, drop injection,
// probabilistic marking) must draw from this source for reproducibility.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d (>= 0). It returns the Event handle, which
// may be used to cancel the callback before it fires. A caller on a
// per-packet path should bind its callback once and use ScheduleArg, so no
// closure is minted per event.
func (s *Sim) Schedule(d time.Duration, fn func()) *Event {
	return s.ScheduleAt(s.after(d), fn)
}

// ScheduleAt runs fn at absolute time t (>= Now).
func (s *Sim) ScheduleAt(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.ScheduleArgAt(t, callFunc, fn)
}

// callFunc is the trampoline behind Schedule/ScheduleAt: the func() is the
// event's argument (a func value is pointer-shaped, so it does not box).
func callFunc(fn any) { fn.(func())() }

// ScheduleArg runs fn(arg) after delay d (>= 0).
func (s *Sim) ScheduleArg(d time.Duration, fn func(any), arg any) *Event {
	return s.ScheduleArgAt(s.after(d), fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute time t (>= Now).
func (s *Sim) ScheduleArgAt(t Time, fn func(any), arg any) *Event {
	s.checkAt(t)
	if fn == nil {
		panic("sim: nil event function")
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{owner: s}
	}
	e.at = t
	e.seq = s.seq
	e.fn = fn
	e.arg = arg
	s.push(e)
	return e
}

// push files e, keyed, in the wheel when it is due inside the span and its
// bucket has room, else in the heap.
func (s *Sim) push(e *Event) {
	if near(s.now, e.at) && s.wheel.add(e) {
		return
	}
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue)-1, e)
}

// after converts a relative delay to an absolute time.
func (s *Sim) after(d time.Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.now.Add(d)
}

// checkAt panics on an attempt to schedule before the current time.
func (s *Sim) checkAt(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < now %v", t, s.now))
	}
}

// rekey moves the queued event e to time t. It draws the seq a
// cancel-then-schedule would have drawn, so the event runs exactly where
// the replacement would have, with no free-list traffic. A heap event that
// stays beyond the span is re-keyed in place with one sift; any other is
// unlinked and filed afresh.
func (s *Sim) rekey(e *Event, t Time) {
	s.checkAt(t)
	s.seq++
	if e.idx >= 0 && !near(s.now, t) {
		e.at = t
		e.seq = s.seq
		s.fix(e.idx, e)
		return
	}
	s.unlink(e)
	e.at = t
	e.seq = s.seq
	s.push(e)
}

// The heap half of the ready queue is an inlined 4-ary heap of *Event.
// Every slot write goes through siftUp/siftDown, which keep Event.idx
// equal to the slot.

// siftUp places e in the hole at i or above it.
func (s *Sim) siftUp(i int, e *Event) {
	q := s.queue
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = i
		i = p
	}
	q[i] = e
	e.idx = i
}

// siftDown places e in the hole at i or below it: at each level the
// smallest of up to 4 children moves up.
func (s *Sim) siftDown(i int, e *Event) {
	q := s.queue
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for k := c + 1; k < end; k++ {
			if eventBefore(q[k], q[min]) {
				min = k
			}
		}
		if !eventBefore(q[min], e) {
			break
		}
		q[i] = q[min]
		q[i].idx = i
		i = min
	}
	q[i] = e
	e.idx = i
}

// fix places e, whose key may have moved either way, in the hole at i.
func (s *Sim) fix(i int, e *Event) {
	if i > 0 && eventBefore(e, s.queue[(i-1)>>2]) {
		s.siftUp(i, e)
	} else {
		s.siftDown(i, e)
	}
}

// takeLast shrinks the heap by one slot and returns the event that was in
// it, for the caller to place in the hole it is about to open.
func (s *Sim) takeLast() *Event {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	return last
}

// unlink takes the queued event e out of whichever structure holds it. In
// the heap the last element fills its slot and sifts to where it belongs.
func (s *Sim) unlink(e *Event) {
	if e.idx == inWheel {
		s.wheel.remove(e)
	} else if last := s.takeLast(); last != e {
		s.fix(e.idx, last)
	}
	e.idx = notQueued
}

// recycle returns an event that left the queue to the free list.
func (s *Sim) recycle(e *Event) {
	e.fn = nil
	e.arg = nil
	s.free = append(s.free, e)
}

// Stop makes Run/RunUntil return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// next returns the earliest queued event without removing it, or nil when
// the queue is empty: the earlier of the wheel's first event and the
// heap's root.
func (s *Sim) next() *Event {
	e := s.wheel.first(s.now)
	if len(s.queue) > 0 && (e == nil || eventBefore(s.queue[0], e)) {
		return s.queue[0]
	}
	return e
}

// step removes and executes the earliest event. Returns false when the
// queue is empty.
func (s *Sim) step() bool {
	e := s.next()
	if e == nil {
		return false
	}
	s.run(e)
	return true
}

// run removes e, which next just returned, and executes it.
func (s *Sim) run(e *Event) {
	if e.idx == inWheel {
		s.wheel.popFirst(e)
	} else if last := s.takeLast(); last != e {
		s.siftDown(0, last) // the root's hole: no parent to compare against
	}
	e.idx = notQueued
	if e.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.at
	fn, arg := e.fn, e.arg
	s.recycle(e)
	s.Executed++
	if s.MaxEvents != 0 && s.Executed > s.MaxEvents {
		panic("sim: MaxEvents exceeded (runaway event loop?)")
	}
	fn(arg)
}

// Step pops and executes the next event, returning false when the queue is
// empty. It is the single-event granularity used by micro-benchmarks and
// debugging harnesses; Run/RunUntil are the normal drivers.
func (s *Sim) Step() bool { return s.step() }

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled exactly at t do run.
func (s *Sim) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		e := s.next()
		if e == nil || e.at > t {
			break
		}
		s.run(e)
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Pending returns the number of events waiting to run: the wheel and the
// heap hold nothing else.
func (s *Sim) Pending() int { return s.wheel.n + len(s.queue) }
