package sim

import (
	"math/rand"
	"sort"
	"testing"
)

type dlOwner struct {
	id int
	it DeadlineItem
}

func dlAccess(o *dlOwner) *DeadlineItem { return &o.it }

func TestDeadlineQueueBasics(t *testing.T) {
	q := NewDeadlineQueue(dlAccess)
	if q.Len() != 0 || q.MinDeadline() != 0 {
		t.Fatal("fresh queue not empty")
	}
	a := &dlOwner{id: 1}
	b := &dlOwner{id: 2}
	c := &dlOwner{id: 3}
	q.Update(a, 30)
	q.Update(b, 10)
	q.Update(c, 20)
	if q.MinDeadline() != 10 {
		t.Fatalf("min = %v, want 10", q.MinDeadline())
	}
	// Move a to the front.
	q.Update(a, 5)
	if q.MinDeadline() != 5 {
		t.Fatalf("min = %v after re-arm, want 5", q.MinDeadline())
	}
	if !a.it.Queued() || a.it.Deadline() != 5 {
		t.Fatalf("item state: queued=%v deadline=%v", a.it.Queued(), a.it.Deadline())
	}
	q.Remove(a)
	if a.it.Queued() {
		t.Fatal("removed item still queued")
	}
	q.Remove(a) // absent: no-op
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	if q.MinDeadline() != 10 {
		t.Fatalf("min = %v after removing a, want 10", q.MinDeadline())
	}
}

func TestDeadlineQueueZeroDeadlineIsValid(t *testing.T) {
	// Time 0 is a real (immediately due) deadline, not a removal: the
	// Juggler files flows at holdStart+timeout, which is 0 at the
	// simulation origin with zero timeouts.
	q := NewDeadlineQueue(dlAccess)
	a := &dlOwner{id: 1}
	q.Update(a, 0)
	if !a.it.Queued() || q.Len() != 1 {
		t.Fatal("zero deadline should insert")
	}
	popped := 0
	q.PopDue(0, func(*dlOwner) { popped++ })
	if popped != 1 || q.Len() != 0 {
		t.Fatalf("popped %d, len %d", popped, q.Len())
	}
}

func TestDeadlineQueuePopDueOrder(t *testing.T) {
	q := NewDeadlineQueue(dlAccess)
	// Ties must pop FIFO by arming order.
	owners := make([]*dlOwner, 10)
	for i := range owners {
		owners[i] = &dlOwner{id: i}
		q.Update(owners[i], Time(100+(i%3)*10)) // deadlines 100,110,120 interleaved
	}
	var got []int
	q.PopDue(115, func(o *dlOwner) { got = append(got, o.id) })
	want := []int{0, 3, 6, 9, 1, 4, 7} // all at 100 (FIFO), then all at 110
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3 (the 120s)", q.Len())
	}
}

// TestDeadlineQueueRandomized drives the queue against a brute-force
// reference model through thousands of random steps: updates, removes,
// owners recycled (removed, zeroed and re-armed at the same deadline),
// re-arm storms with no pops in between, and due-prefix pops. After every
// step it checks the slot bound, Len and an exact MinDeadline; every pop
// must visit each due owner once, in (deadline, arming order).
func TestDeadlineQueueRandomized(t *testing.T) {
	for _, n := range []int{64, 600} {
		rng := rand.New(rand.NewSource(int64(7 + n)))
		q := NewDeadlineQueue(dlAccess)
		owners := make([]*dlOwner, n)
		for i := range owners {
			owners[i] = &dlOwner{id: i}
		}
		type armed struct {
			at  Time
			seq int // reference arming order
		}
		ref := map[int]armed{} // id -> deadline for queued owners
		arms := 0
		update := func(o *dlOwner, at Time) {
			q.Update(o, at)
			if a, ok := ref[o.id]; !ok || a.at != at {
				arms++
				ref[o.id] = armed{at, arms}
			}
		}
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(20); {
			case r < 10: // update
				update(owners[rng.Intn(n)], Time(rng.Intn(1000)))
			case r < 13: // remove
				o := owners[rng.Intn(n)]
				q.Remove(o)
				delete(ref, o.id)
			case r < 15: // recycle: remove, zero, re-arm at the same deadline
				o := owners[rng.Intn(n)]
				if a, ok := ref[o.id]; ok {
					q.Remove(o)
					delete(ref, o.id)
					*o = dlOwner{id: o.id}
					update(o, a.at)
				}
			case r < 16: // re-arm storm: many moves, no pop
				for k := rng.Intn(4 * n); k > 0; k-- {
					update(owners[rng.Intn(n)], Time(rng.Intn(1000)))
				}
			default: // pop a due prefix
				now := Time(rng.Intn(1000))
				var popped []int
				seen := map[int]bool{}
				q.PopDue(now, func(o *dlOwner) {
					if seen[o.id] {
						t.Fatalf("n=%d step %d: owner %d visited twice", n, step, o.id)
					}
					seen[o.id] = true
					popped = append(popped, o.id)
				})
				var want []int
				for id, a := range ref {
					if a.at <= now {
						want = append(want, id)
					}
				}
				sort.Slice(want, func(i, j int) bool {
					a, b := ref[want[i]], ref[want[j]]
					return a.at < b.at || (a.at == b.at && a.seq < b.seq)
				})
				if len(popped) != len(want) {
					t.Fatalf("n=%d step %d: popped %v, want %v", n, step, popped, want)
				}
				for i := range want {
					if popped[i] != want[i] {
						t.Fatalf("n=%d step %d: popped %v, want %v", n, step, popped, want)
					}
					delete(ref, want[i])
				}
			}
			if len(q.heap) > 2*q.Len()+64 {
				t.Fatalf("n=%d step %d: %d slots for %d owners", n, step, len(q.heap), q.Len())
			}
			if q.Len() != len(ref) {
				t.Fatalf("n=%d step %d: len %d, want %d", n, step, q.Len(), len(ref))
			}
			min, has := Time(0), false
			for _, a := range ref {
				if !has || a.at < min {
					min, has = a.at, true
				}
			}
			if got := q.MinDeadline(); got != min {
				t.Fatalf("n=%d step %d: min %v, want %v", n, step, got, min)
			}
			o := owners[rng.Intn(n)]
			a, queued := ref[o.id]
			if o.it.Queued() != queued || o.it.Deadline() != a.at {
				t.Fatalf("n=%d step %d: owner %d queued=%v at %v, want %v at %v",
					n, step, o.id, o.it.Queued(), o.it.Deadline(), queued, a.at)
			}
		}
	}
}

// TestDeadlineQueueZeroAllocSteadyState pins the queue's steady-state
// allocation behaviour: once the backing array has grown, churning
// update/pop cycles allocates nothing, and neither does a compaction.
func TestDeadlineQueueZeroAllocSteadyState(t *testing.T) {
	q := NewDeadlineQueue(dlAccess)
	owners := make([]*dlOwner, 32)
	for i := range owners {
		owners[i] = &dlOwner{id: i}
	}
	at := Time(1)
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range owners {
			q.Update(o, at)
			at += 3
		}
		for _, o := range owners[:16] {
			q.Update(o, at) // move
			at += 1
		}
		q.PopDue(at, func(*dlOwner) {})
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f per cycle, want 0", allocs)
	}

	// Re-arm every owner five times without a pop: 160 slots for 32
	// owners crosses the 2·32+64 bound, so each cycle compacts.
	compactions := 0
	allocs = testing.AllocsPerRun(100, func() {
		peak := 0
		for r := 0; r < 5; r++ {
			for _, o := range owners {
				q.Update(o, at)
				at++
				if len(q.heap) < peak {
					compactions++
				}
				peak = len(q.heap)
			}
		}
		q.PopDue(at, func(*dlOwner) {})
	})
	if compactions == 0 {
		t.Fatal("re-arm cycle never compacted")
	}
	if allocs != 0 {
		t.Fatalf("compacting re-arm cycle allocates %.1f per cycle, want 0", allocs)
	}
}
