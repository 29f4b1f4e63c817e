package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// checkHeap verifies the ready queue's structure. In the heap every
// slot's event knows its index and no child sorts before its parent. In
// the wheel every bucket holds a sorted run between its head and tail
// indices, each event of it filed in its own bucket and inside the span,
// with nothing outside the run, its occ bit set exactly when the run is
// non-empty, and the runs adding up to the in-wheel count.
func checkHeap(t testing.TB, s *Sim) {
	t.Helper()
	for i, e := range s.queue {
		if e.idx != i {
			t.Fatalf("queue[%d].idx = %d", i, e.idx)
		}
		if i > 0 && eventBefore(e, s.queue[(i-1)>>2]) {
			t.Fatalf("queue[%d] sorts before its parent", i)
		}
	}
	w := &s.wheel
	n := 0
	for b := range w.slot {
		h, tl := int(w.head[b]), int(w.tail[b])
		if h > tl || tl > bucketCap || (h == tl && tl != 0) {
			t.Fatalf("bucket %d: head %d, tail %d", b, h, tl)
		}
		if occ := w.occ>>uint(b)&1 == 1; occ != (h < tl) {
			t.Fatalf("bucket %d: occ bit %v with %d events", b, occ, tl-h)
		}
		for i, e := range w.slot[b] {
			if i < h || i >= tl {
				if e != nil {
					t.Fatalf("bucket %d slot %d outside [%d, %d) holds an event", b, i, h, tl)
				}
				continue
			}
			if e.idx != inWheel {
				t.Fatalf("bucket %d slot %d: idx = %d, want inWheel", b, i, e.idx)
			}
			if bucketOf(e.at) != b || e.at < s.now || !near(s.now, e.at) {
				t.Fatalf("bucket %d slot %d: event at %v filed wrongly (now %v)", b, i, e.at, s.now)
			}
			if i > h && !eventBefore(w.slot[b][i-1], e) {
				t.Fatalf("bucket %d: slot %d sorts before slot %d", b, i, i-1)
			}
		}
		n += tl - h
	}
	if n != w.n {
		t.Fatalf("buckets hold %d events, in-wheel count %d", n, w.n)
	}
}

// evKey is an event's place in the execution order.
type evKey struct {
	at  Time
	seq uint64
}

// readyModel drives a Sim and the reference model of its ready queue side
// by side: the set of surviving events keyed by (at, seq), each under an
// id. Ids below len(tms) are the timers. Every step must execute the
// model's minimum — the order a sort by (at, seq) gives — and after every
// operation the queue must hold exactly the survivors.
type readyModel struct {
	t       testing.TB
	s       *Sim
	model   map[int]evKey
	handles map[int]*Event
	tms     []*Timer
	got     []int // ids of the events executed since the last check
	nextID  int
}

func newReadyModel(t testing.TB, seed int64, timers int) *readyModel {
	m := &readyModel{t: t, s: New(seed), model: map[int]evKey{}, handles: map[int]*Event{}, nextID: timers}
	for i := 0; i < timers; i++ {
		i := i
		m.tms = append(m.tms, NewTimer(m.s, func() { m.got = append(m.got, i) }))
	}
	return m
}

func (m *readyModel) check(op string) {
	m.t.Helper()
	if m.s.Pending() != len(m.model) || m.s.wheel.n+len(m.s.queue) != m.s.Pending() {
		m.t.Fatalf("after %s: wheel %d + heap %d, Pending() = %d, %d events survive",
			op, m.s.wheel.n, len(m.s.queue), m.s.Pending(), len(m.model))
	}
	checkHeap(m.t, m.s)
}

func (m *readyModel) schedule(d time.Duration) {
	id := m.nextID
	m.nextID++
	m.handles[id] = m.s.Schedule(d, func() { m.got = append(m.got, id) })
	m.model[id] = evKey{m.s.now.Add(d), m.s.seq}
}

// cancel cancels the live scheduled event chosen by pick, if there is one.
func (m *readyModel) cancel(pick int) {
	m.t.Helper()
	if len(m.handles) == 0 {
		return
	}
	ids := make([]int, 0, len(m.handles))
	for id := range m.handles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	id := ids[pick%len(ids)]
	e := m.handles[id]
	if !e.Cancel() {
		m.t.Fatalf("cancel of a pending event returned false")
	}
	if e.Cancel() || e.Pending() {
		m.t.Fatalf("handle still live after Cancel")
	}
	delete(m.model, id)
	delete(m.handles, id)
}

// reset arms or re-arms timer i for d, earlier or later than before.
func (m *readyModel) reset(i int, d time.Duration) {
	m.t.Helper()
	m.tms[i].Reset(d)
	m.model[i] = evKey{m.s.now.Add(d), m.s.seq}
	if !m.tms[i].Pending() || m.tms[i].Deadline() != m.s.now.Add(d) {
		m.t.Fatalf("timer not armed for %v after Reset", d)
	}
}

func (m *readyModel) stop(i int) {
	m.t.Helper()
	_, armed := m.model[i]
	if m.tms[i].Stop() != armed || m.tms[i].Pending() {
		m.t.Fatalf("Stop on a timer with armed=%v", armed)
	}
	delete(m.model, i)
}

// min returns the id of the model's earliest event.
func (m *readyModel) min() (int, bool) {
	want, found := -1, false
	for id, k := range m.model {
		if w := m.model[want]; !found || k.at < w.at || (k.at == w.at && k.seq < w.seq) {
			want, found = id, true
		}
	}
	return want, found
}

// retire checks that the events just executed are the model's minima in
// (at, seq) order, none due after until, and takes them out of the model.
func (m *readyModel) retire(op string, until Time) {
	m.t.Helper()
	for _, id := range m.got {
		want, _ := m.min()
		if id != want || m.model[want].at > until {
			m.t.Fatalf("%s executed event %d, the (at, seq) order says %d", op, id, want)
		}
		delete(m.model, want)
		delete(m.handles, want)
	}
	m.got = m.got[:0]
}

func (m *readyModel) step() {
	m.t.Helper()
	_, found := m.min()
	if ran := m.s.step(); ran != found || (len(m.got) == 1) != found {
		m.t.Fatalf("step() = %v, ran %d events, with %d survivors", ran, len(m.got), len(m.model))
	}
	m.retire("step", m.s.now)
}

// runUntil runs RunUntil(t) and checks that it executed exactly the
// model's events due at or before t, in order, and left the clock at t.
func (m *readyModel) runUntil(t Time) {
	m.t.Helper()
	now := m.s.now
	m.s.RunUntil(t)
	m.retire(fmt.Sprintf("RunUntil(%v)", t), t)
	if want, found := m.min(); found && m.model[want].at <= t {
		m.t.Fatalf("RunUntil(%v) left event %d due at %v", t, want, m.model[want].at)
	}
	if m.s.now != max(now, t) {
		m.t.Fatalf("RunUntil(%v) left the clock at %v, want %v", t, m.s.now, max(now, t))
	}
}

// TestHeapHoldsOnlyLiveEvents drives a random mix of schedule, cancel,
// Timer.Reset, Timer.Stop and step against the reference model, with
// delays on both sides of the wheel's 4.096 µs span: same-instant ties,
// delays straddling the span's end, far delays, timer Resets that cross
// the span in both directions, and bursts at one instant that overflow a
// bucket into the heap.
func TestHeapHoldsOnlyLiveEvents(t *testing.T) {
	const timers = 4
	span := time.Duration(wheelBuckets << wheelShift)
	var inward, outward, overflowed int
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newReadyModel(t, seed, timers)
		s := m.s
		draw := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0 // ties with everything due now
			case 1:
				return time.Duration(rng.Intn(2000))
			case 2:
				return span - 200 + time.Duration(rng.Intn(400)) // straddles the span's end
			default:
				return time.Duration(rng.Intn(20 * int(span)))
			}
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 25:
				m.schedule(draw())
				m.check("schedule")
			case r < 26: // a burst at one instant: the bucket overflows into the heap
				d := time.Duration(rng.Intn(int(span)))
				for i := 0; i < bucketCap+2; i++ {
					m.schedule(d)
				}
				for _, e := range s.queue {
					if near(s.now, e.at) {
						overflowed++
						break
					}
				}
				m.check("burst")
			case r < 35:
				m.cancel(rng.Int())
				m.check("cancel")
			case r < 65:
				i := rng.Intn(timers)
				wasIn := m.tms[i].Pending() && m.tms[i].ev.idx == inWheel
				wasOut := m.tms[i].Pending() && m.tms[i].ev.idx >= 0
				m.reset(i, draw())
				isIn := m.tms[i].ev.idx == inWheel
				if wasOut && isIn {
					inward++
				}
				if wasIn && !isIn {
					outward++
				}
				m.check("reset")
			case r < 75:
				m.stop(rng.Intn(timers))
				m.check("stop")
			default:
				m.step()
				m.check("step")
			}
		}
		for len(m.model) > 0 {
			m.step()
			m.check("drain")
		}
		if s.step() {
			t.Fatalf("seed %d: step ran an event after every survivor executed", seed)
		}
	}
	if inward == 0 || outward == 0 || overflowed == 0 {
		t.Fatalf("coverage: %d Resets into the span, %d out of it, %d overflowing bursts; want each > 0",
			inward, outward, overflowed)
	}
}

// FuzzReadyQueue runs an op program — schedule near or far, cancel,
// Timer.Reset, Timer.Stop, step, RunUntil at a bucket edge — against the
// sorted reference model. Each op is two bytes: the op and its operand.
func FuzzReadyQueue(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 1, 200, 6, 0, 7, 1, 6, 0})
	f.Add([]byte{3, 40, 4, 1, 3, 255, 4, 200, 6, 0, 6, 0, 5, 0, 7, 64})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const timers = 3
		m := newReadyModel(t, 1, timers)
		s := m.s
		for i := 0; i+1 < len(prog); i += 2 {
			arg := int(prog[i+1])
			switch prog[i] % 8 {
			case 0: // near: a tie at a handful of instants inside one bucket
				m.schedule(time.Duration(arg % 8))
			case 1: // anywhere in the span, 16 ns steps
				m.schedule(time.Duration(arg) * 16)
			case 2: // beyond the span
				m.schedule(time.Duration(wheelBuckets<<wheelShift + arg*97))
			case 3:
				m.cancel(arg)
			case 4: // a timer Reset near or far
				d := time.Duration(arg) * 16
				if arg&1 == 1 {
					d *= 40
				}
				m.reset(arg%timers, d)
			case 5:
				m.stop(arg % timers)
			case 6:
				m.step()
			case 7: // RunUntil one ns either side of, or on, a bucket edge
				edge := s.now&^(1<<wheelShift-1) + Time(arg>>2)<<wheelShift
				m.runUntil(edge + Time(arg&3) - 1)
			}
			m.check(fmt.Sprintf("op %d", prog[i]%8))
		}
		for len(m.model) > 0 {
			m.step()
			m.check("drain")
		}
	})
}

// TestTimerRekeyOrder pins the re-key rule on both sides: a pending timer
// moved later, and one moved earlier, each run where a Stop followed by a
// fresh schedule would have put them — including the FIFO tie-break at an
// instant shared with events scheduled before and after the Reset.
func TestTimerRekeyOrder(t *testing.T) {
	s := New(1)
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	later := NewTimer(s, note("later"))
	earlier := NewTimer(s, note("earlier"))
	later.Reset(10 * time.Nanosecond)
	earlier.Reset(90 * time.Nanosecond)
	s.Schedule(50*time.Nanosecond, note("a@50"))
	s.Schedule(20*time.Nanosecond, note("b@20"))
	later.Reset(50 * time.Nanosecond)   // 10 -> 50: after a@50, it drew the newer seq
	earlier.Reset(20 * time.Nanosecond) // 90 -> 20: after b@20
	s.Schedule(50*time.Nanosecond, note("c@50"))
	s.Schedule(20*time.Nanosecond, note("d@20"))
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6: a re-armed timer is one event", s.Pending())
	}
	s.Run()
	want := []string{"b@20", "earlier", "d@20", "a@50", "later", "c@50"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// TestTimerResetStorm is the regression test for carcass bloat: a timer
// pushed out 10^5 times (an RTO re-armed by every ACK) among 50 live
// events must stay one queued event throughout, not one per Reset until
// each old deadline passes.
func TestTimerResetStorm(t *testing.T) {
	s := New(1)
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i+1)*time.Second, func() {})
	}
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	for i := 0; i < 100_000; i++ {
		tm.Reset(time.Hour + time.Duration(i)*time.Millisecond)
		if s.Pending() > 51 || len(s.free) > 1 {
			t.Fatalf("after %d resets: %d queued (want <= 51), free list %d (want <= 1)",
				i+1, s.Pending(), len(s.free))
		}
	}
	checkHeap(t, s)
	// Stop-then-arm cycles recycle the one event through the free list.
	for i := 0; i < 1000; i++ {
		tm.Stop()
		tm.Reset(time.Hour)
	}
	if s.Pending() != 51 || len(s.free) > 1 {
		t.Fatalf("after stop/arm cycles: %d queued, free list %d", s.Pending(), len(s.free))
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

// TestTimerResetStormNear is TestTimerResetStorm inside the wheel's span:
// a coalescing-style timer re-armed 10^5 times at near deadlines, every
// fourth Reset crossing out of the span and back, among 50 live events
// spread over the span's buckets. It must stay one queued event and leave
// no stale slot behind in any bucket.
func TestTimerResetStormNear(t *testing.T) {
	s := New(1)
	span := time.Duration(wheelBuckets << wheelShift)
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i)*span/50, func() {})
	}
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	for i := 0; i < 100_000; i++ {
		d := time.Duration(i*37) % span
		if i%4 == 3 {
			d += span
		}
		tm.Reset(d)
		if s.Pending() > 51 || len(s.free) > 1 {
			t.Fatalf("after %d resets: %d queued (want <= 51), free list %d (want <= 1)",
				i+1, s.Pending(), len(s.free))
		}
	}
	checkHeap(t, s)
	if s.wheel.n < 49 {
		t.Fatalf("only %d of the 50 near events sit in the wheel", s.wheel.n)
	}
	for i := 0; i < 1000; i++ {
		tm.Stop()
		tm.Reset(time.Duration(i) % span)
	}
	if s.Pending() != 51 || len(s.free) > 1 {
		t.Fatalf("after stop/arm cycles: %d queued, free list %d", s.Pending(), len(s.free))
	}
	checkHeap(t, s)
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

// TestCancelDeadHandle: cancelling a handle whose event already ran or was
// already cancelled is a no-op, and disturbs nothing that is pending.
func TestCancelDeadHandle(t *testing.T) {
	s := New(1)
	ran := 0
	e := s.Schedule(time.Microsecond, func() { ran++ })
	s.Schedule(3*time.Microsecond, func() { ran++ })
	s.RunFor(2 * time.Microsecond)
	if e.Pending() || e.Cancel() {
		t.Fatal("handle of an executed event still live")
	}
	c := s.Schedule(time.Microsecond, func() { t.Error("cancelled event ran") })
	if !c.Cancel() || c.Cancel() || c.Pending() {
		t.Fatal("want first Cancel true, second false, handle dead")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after dead-handle cancels, want 1", s.Pending())
	}
	s.Run()
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
}

// TestEventSize keeps Event inside the 64-byte allocation size class: one
// more word would put every event (and the free list) in the 80-byte
// class.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 64 {
		t.Fatalf("sizeof(Event) = %d, want <= 64", sz)
	}
}
