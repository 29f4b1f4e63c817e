package sim

import (
	"testing"
	"time"
)

// BenchmarkSchedule measures the steady-state cost of one schedule+execute
// cycle on an otherwise empty queue: free-list pop, heap push, heap pop,
// recycle. This is the floor under every event in the stack.
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
