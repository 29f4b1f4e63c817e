package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// checkHeap verifies the ready queue's structure: every slot's event knows
// its index, and no child sorts before its parent.
func checkHeap(t *testing.T, s *Sim) {
	t.Helper()
	for i, e := range s.queue {
		if e.idx != i {
			t.Fatalf("queue[%d].idx = %d", i, e.idx)
		}
		if i > 0 && eventBefore(e, s.queue[(i-1)>>2]) {
			t.Fatalf("queue[%d] sorts before its parent", i)
		}
	}
}

// TestHeapHoldsOnlyLiveEvents drives a random mix of schedule, cancel,
// Timer.Reset, Timer.Stop and step against a reference model — the set of
// surviving events keyed by (at, seq). After every operation the heap must
// hold exactly the survivors, and every step must execute the model's
// minimum: the order a sort by (at, seq) gives.
func TestHeapHoldsOnlyLiveEvents(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	const timers = 4
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		model := map[int]key{} // event id -> key; ids < timers are the timers
		handles := map[int]*Event{}
		last := -1
		nextID := timers
		var tms [timers]*Timer
		for i := range tms {
			i := i
			tms[i] = NewTimer(s, func() { last = i })
		}
		check := func(op string) {
			t.Helper()
			if len(s.queue) != s.Pending() || len(s.queue) != len(model) {
				t.Fatalf("seed %d after %s: heap holds %d, Pending() = %d, %d events survive",
					seed, op, len(s.queue), s.Pending(), len(model))
			}
			checkHeap(t, s)
		}
		step := func() {
			t.Helper()
			want, found := -1, false
			for id, k := range model {
				if !found || k.at < model[want].at || (k.at == model[want].at && k.seq < model[want].seq) {
					want, found = id, true
				}
			}
			last = -1
			if ran := s.step(); ran != found {
				t.Fatalf("seed %d: step() = %v with %d survivors", seed, ran, len(model))
			}
			if last != want {
				t.Fatalf("seed %d: executed event %d, the (at, seq) order says %d", seed, last, want)
			}
			delete(model, want)
			delete(handles, want)
		}
		for op := 0; op < 4000; op++ {
			d := time.Duration(rng.Intn(2000)) * time.Nanosecond
			switch r := rng.Intn(10); {
			case r < 3: // schedule
				id := nextID
				nextID++
				handles[id] = s.Schedule(d, func() { last = id })
				model[id] = key{s.now.Add(d), s.seq}
				check("schedule")
			case r < 4: // cancel a random live event
				for id, e := range handles {
					if !e.Cancel() {
						t.Fatalf("seed %d: cancel of a pending event returned false", seed)
					}
					if e.Cancel() || e.Pending() {
						t.Fatalf("seed %d: handle still live after Cancel", seed)
					}
					delete(model, id)
					delete(handles, id)
					break
				}
				check("cancel")
			case r < 7: // arm or re-arm a timer, earlier or later than before
				i := rng.Intn(timers)
				tms[i].Reset(d)
				model[i] = key{s.now.Add(d), s.seq}
				if !tms[i].Pending() || tms[i].Deadline() != s.now.Add(d) {
					t.Fatalf("seed %d: timer not armed for %v after Reset", seed, d)
				}
				check("reset")
			case r < 8: // stop a timer
				i := rng.Intn(timers)
				_, armed := model[i]
				if tms[i].Stop() != armed || tms[i].Pending() {
					t.Fatalf("seed %d: Stop on a timer with armed=%v", seed, armed)
				}
				delete(model, i)
				check("stop")
			default:
				step()
				check("step")
			}
		}
		for len(model) > 0 {
			step()
			check("drain")
		}
		if s.step() {
			t.Fatalf("seed %d: step ran an event after every survivor executed", seed)
		}
	}
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
// events must occupy one heap slot throughout, not one per Reset until
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
		if len(s.queue) > 51 || len(s.free) > 1 {
			t.Fatalf("after %d resets: heap %d entries (want <= 51), free list %d (want <= 1)",
				i+1, len(s.queue), len(s.free))
		}
	}
	checkHeap(t, s)
	// Stop-then-arm cycles recycle the one event through the free list.
	for i := 0; i < 1000; i++ {
		tm.Stop()
		tm.Reset(time.Hour)
	}
	if len(s.queue) != 51 || len(s.free) > 1 {
		t.Fatalf("after stop/arm cycles: heap %d, free list %d", len(s.queue), len(s.free))
	}
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
