package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSchedule measures the steady-state cost of one schedule+execute
// cycle on an otherwise empty queue: free-list pop, filing in a wheel
// bucket, pop, recycle. This is the floor under every event in the stack.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, fn)
		s.step()
	}
}

// BenchmarkHeapChurn measures schedule+execute with a populated heap (1k
// pending timers, the regime of a multi-flow run), so the 4-ary sift loops
// do real work per operation.
func BenchmarkHeapChurn(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1024*time.Microsecond, fn)
		s.step()
	}
}

// BenchmarkHeapChurnCancel is the churn loop with a cancelled event per
// cycle: Cancel takes its event out of the populated heap at once.
func BenchmarkHeapChurnCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(1023*time.Microsecond, fn)
		s.Schedule(1024*time.Microsecond, fn)
		e.Cancel()
		s.step()
	}
}

// BenchmarkTimerReset is the churn loop with a pending timer pushed out on
// every cycle — the RTO re-armed by each ACK. The re-arm re-keys the
// timer's one event in place among the 1k others.
func BenchmarkTimerReset(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	tm := NewTimer(s, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(5 * time.Millisecond)
		s.Schedule(1024*time.Microsecond, fn)
		s.step()
	}
}

// BenchmarkScheduleClosShape reproduces the ready queue of the sprayed
// Clos benchmark: 32 far timers, pushed out 1–2 ms like an RTO re-armed
// by an ACK (one of them every 16 ops, so none fires), under a stream of
// near events due 128–512 ns ahead — a port's tx-complete or a
// propagation delivery — with 24 of them pending. One op is one schedule
// plus one step.
func BenchmarkScheduleClosShape(b *testing.B) {
	s := New(1)
	fn := func() {}
	var tms [32]*Timer
	rto := func(k int) time.Duration { return time.Millisecond + time.Duration(k)*31*time.Microsecond }
	for k := range tms {
		tms[k] = NewTimer(s, fn)
		tms[k].Reset(rto(k))
	}
	var delays [256]time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(128 + rng.Intn(385))
	}
	for i := 0; i < 24; i++ {
		s.Schedule(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&15 == 0 {
			k := i >> 4 & 31
			tms[k].Reset(rto(k))
		}
		s.Schedule(delays[i&255], fn)
		s.step()
	}
}

// BenchmarkDeadlineQueue measures the Juggler's timeout bookkeeping at the
// rx-flowscale shape: 25 000 flows per queue, each armed at a later
// deadline than every flow before it, and a due-prefix PopDue every 16
// arms whose expired flows are the next ones re-armed. One op is one arm
// plus a sixteenth of a PopDue. Owners are padded to the size of a core
// flow entry and shuffled in memory, so they outgrow the cache the way
// the flow table does.
func BenchmarkDeadlineQueue(b *testing.B) {
	const n = 25000
	type owner struct {
		it DeadlineItem
		_  [112]byte
	}
	q := NewDeadlineQueue(func(o *owner) *DeadlineItem { return &o.it })
	owners := make([]*owner, n)
	for i := range owners {
		owners[i] = &owner{}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
	for i, o := range owners {
		q.Update(o, Time(i))
	}
	expired := make([]*owner, 0, n)
	visit := func(o *owner) { expired = append(expired, o) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := Time(i)
		if i&15 == 0 {
			q.PopDue(now, visit)
		}
		if k := len(expired) - 1; k >= 0 {
			q.Update(expired[k], now+n)
			expired = expired[:k]
		}
	}
}

// TestScheduleStepZeroAlloc pins the hot-loop contract from the package
// doc: once the free list and heap capacity are warm, a schedule+execute
// cycle allocates nothing — including Cancel, a timer re-arm, and an
// event scheduled with an argument.
func TestScheduleStepZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm-up: grow the heap array and stock the free list.
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()

	if allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.step()
	}); allocs != 0 {
		t.Errorf("steady-state Schedule+step allocates %v objects/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		e := s.Schedule(2*time.Microsecond, fn)
		s.Schedule(time.Microsecond, fn)
		e.Cancel()
		s.step() // the live event; the cancelled one is already gone
	}); allocs != 0 {
		t.Errorf("cancel path allocates %v objects/op, want 0", allocs)
	}

	tm := NewTimer(s, fn)
	if allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(2 * time.Microsecond) // arm
		tm.Reset(3 * time.Microsecond) // re-key while pending
		s.step()
	}); allocs != 0 {
		t.Errorf("timer arm+re-arm+fire allocates %v objects/op, want 0", allocs)
	}

	arg := &struct{ n int }{}
	bump := func(a any) { a.(*struct{ n int }).n++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleArg(time.Microsecond, bump, arg)
		s.step()
	}); allocs != 0 {
		t.Errorf("ScheduleArg with a pointer argument allocates %v objects/op, want 0", allocs)
	}

	// One full wheel turn: each event is due one bucket after the last,
	// so the loop files into and pops from all 64 buckets in turn.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < wheelBuckets; i++ {
			s.Schedule(1<<wheelShift, fn)
			s.step()
		}
	}); allocs != 0 {
		t.Errorf("a wheel turn allocates %v objects/op, want 0", allocs)
	}

	// A burst at one instant fills its bucket and overflows into the heap.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < bucketCap+4; i++ {
			s.Schedule(100*time.Nanosecond, fn)
		}
		for s.step() {
		}
	}); allocs != 0 {
		t.Errorf("a bucket overflowing into the heap allocates %v objects/op, want 0", allocs)
	}
}

// TestEventRecycled checks that the free list actually reuses handles: the
// event executed in one cycle is the one handed out by the next Schedule.
func TestEventRecycled(t *testing.T) {
	s := New(1)
	fn := func() {}
	e1 := s.Schedule(time.Microsecond, fn)
	s.step()
	e2 := s.Schedule(time.Microsecond, fn)
	if e1 != e2 {
		t.Errorf("executed event was not recycled: got %p then %p", e1, e2)
	}
	if !e2.Pending() {
		t.Errorf("recycled handle not pending after re-schedule")
	}
	s.step()
}
