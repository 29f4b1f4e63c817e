package sim

import (
	"fmt"
	"math/rand"
	"slices"
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

// dlRef is the brute-force model a DeadlineQueue is checked against: the
// deadline and arming order of every queued owner.
type dlRef struct {
	q      *DeadlineQueue[*dlOwner]
	owners []*dlOwner
	armed  map[int]dlArm // id -> arm, for queued owners
	arms   int
}

type dlArm struct {
	at  Time
	seq int // reference arming order
}

func newDLRef(n int) *dlRef {
	r := &dlRef{q: NewDeadlineQueue(dlAccess), owners: make([]*dlOwner, n), armed: map[int]dlArm{}}
	for i := range r.owners {
		r.owners[i] = &dlOwner{id: i}
	}
	return r
}

func (r *dlRef) update(o *dlOwner, at Time) {
	r.q.Update(o, at)
	if a, ok := r.armed[o.id]; !ok || a.at != at {
		r.arms++
		r.armed[o.id] = dlArm{at, r.arms}
	}
}

func (r *dlRef) remove(o *dlOwner) {
	r.q.Remove(o)
	delete(r.armed, o.id)
}

// popDue pops the queue's due prefix and checks it visits every owner due
// at now once, by (deadline, arming order).
func (r *dlRef) popDue(now Time) error {
	var got []int
	seen := map[int]bool{}
	var err error
	r.q.PopDue(now, func(o *dlOwner) {
		if seen[o.id] && err == nil {
			err = fmt.Errorf("owner %d visited twice", o.id)
		}
		seen[o.id] = true
		got = append(got, o.id)
	})
	if err != nil {
		return err
	}
	var want []int
	for id, a := range r.armed {
		if a.at <= now {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := r.armed[want[i]], r.armed[want[j]]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	if !slices.Equal(got, want) {
		return fmt.Errorf("PopDue(%v) visited %v, want %v", now, got, want)
	}
	for _, id := range want {
		delete(r.armed, id)
	}
	return nil
}

// check compares the queue with the model: the slot bound over every slot
// held, Len, a read-only PeekMinDeadline, an exact MinDeadline and the
// item state of owner o.
func (r *dlRef) check(o *dlOwner) error {
	q := r.q
	if n := q.slots(); n > 2*q.Len()+64 {
		return fmt.Errorf("%d slots for %d owners", n, q.Len())
	}
	if q.Len() != len(r.armed) {
		return fmt.Errorf("len %d, want %d", q.Len(), len(r.armed))
	}
	min, has := Time(0), false
	for _, a := range r.armed {
		if !has || a.at < min {
			min, has = a.at, true
		}
	}
	slots := q.slots()
	if got := q.PeekMinDeadline(); got != min {
		return fmt.Errorf("peeked min %v, want %v", got, min)
	}
	if q.slots() != slots {
		return fmt.Errorf("PeekMinDeadline dropped slots: %d -> %d", slots, q.slots())
	}
	if got := q.MinDeadline(); got != min {
		return fmt.Errorf("min %v, want %v", got, min)
	}
	a, queued := r.armed[o.id]
	if o.it.Queued() != queued || o.it.Deadline() != a.at {
		return fmt.Errorf("owner %d queued=%v at %v, want %v at %v",
			o.id, o.it.Queued(), o.it.Deadline(), queued, a.at)
	}
	return nil
}

// TestDeadlineQueueRandomized drives the queue against the brute-force
// model through thousands of random steps, checking every pop and, after
// every step, the model's check. Two modes:
//   - uniform deadlines: updates, removes, owners recycled (removed,
//     zeroed and re-armed at the same deadline), re-arm storms with no
//     pops in between, and due-prefix pops at random instants — almost
//     every arm lands in the heap;
//   - two offsets, the Juggler's shape: a clock that only moves forward,
//     arms at now+A or now+B, and about 10 % of arms moving a deadline
//     earlier to anchor+A from an old anchor. Most arms land in the
//     lanes, the moves in the heap, and the coarse clock puts many equal
//     deadlines in a lane and the heap at once.
func TestDeadlineQueueRandomized(t *testing.T) {
	for _, n := range []int{64, 600} {
		t.Run(fmt.Sprintf("uniform/n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + n)))
			r := newDLRef(n)
			for step := 0; step < 20000; step++ {
				var err error
				switch x := rng.Intn(20); {
				case x < 10: // update
					r.update(r.owners[rng.Intn(n)], Time(rng.Intn(1000)))
				case x < 13: // remove
					r.remove(r.owners[rng.Intn(n)])
				case x < 15: // recycle: remove, zero, re-arm at the same deadline
					o := r.owners[rng.Intn(n)]
					if a, ok := r.armed[o.id]; ok {
						r.remove(o)
						*o = dlOwner{id: o.id}
						r.update(o, a.at)
					}
				case x < 16: // re-arm storm: many moves, no pop
					for k := rng.Intn(4 * n); k > 0; k-- {
						r.update(r.owners[rng.Intn(n)], Time(rng.Intn(1000)))
					}
				default: // pop a due prefix
					err = r.popDue(Time(rng.Intn(1000)))
				}
				if err == nil {
					err = r.check(r.owners[rng.Intn(n)])
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
		t.Run(fmt.Sprintf("two-offset/n=%d", n), func(t *testing.T) {
			const inseq, ofo = 12, 30
			rng := rand.New(rand.NewSource(int64(11 + n)))
			r := newDLRef(n)
			anchor := make([]Time, n)
			now := Time(0)
			laneSlots, heapSlots := 0, 0
			for step := 0; step < 20000; step++ {
				var err error
				switch x := rng.Intn(20); {
				case x < 11: // arm at one of the two offsets
					o := r.owners[rng.Intn(n)]
					anchor[o.id] = now
					r.update(o, now+Time([]int{inseq, ofo}[rng.Intn(2)]))
				case x < 13: // a filled hole: the deadline moves to anchor+A
					o := r.owners[rng.Intn(n)]
					if a, ok := r.armed[o.id]; ok && anchor[o.id]+inseq < a.at {
						r.update(o, anchor[o.id]+inseq)
					}
				case x < 14: // drained
					r.remove(r.owners[rng.Intn(n)])
				case x < 16: // the clock moves on
					now += Time(rng.Intn(4))
				default:
					err = r.popDue(now)
				}
				if err == nil {
					err = r.check(r.owners[rng.Intn(n)])
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				laneSlots += r.q.slots() - len(r.q.heap)
				heapSlots += len(r.q.heap)
			}
			if laneSlots <= 2*heapSlots {
				t.Fatalf("lanes held %d slot-steps against the heap's %d: the lanes are not taking the sorted arms",
					laneSlots, heapSlots)
			}
		})
	}
}

// FuzzDeadlineQueue runs a byte program against the queue and the
// brute-force model. Each byte pair is an opcode and an argument: arm an
// owner at an offset from the clock, move a queued owner's deadline
// earlier, remove an owner, pop the due prefix, or advance the clock.
// Every pop's visit order and, after every operation, the model's check
// (Len, MinDeadline, the slot bound) must agree.
func FuzzDeadlineQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 8, 2, 3, 0, 4, 40, 3, 0})
	f.Add([]byte{0, 3, 8, 3, 1, 3, 2, 1, 4, 9, 0, 2, 3, 0, 4, 200, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 1, 2, 4, 12, 3, 0, 2, 3, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const n = 8
		r := newDLRef(n)
		var anchor [n]Time
		now := Time(0)
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			o := r.owners[int(arg)%n]
			var err error
			switch op % 5 {
			case 0: // arm at an offset: the in-sequence, the out-of-order, or a short one
				anchor[o.id] = now
				r.update(o, now+Time([]int{10, 25, int(arg >> 4)}[int(op>>3)%3]))
			case 1: // move earlier: to anchor+10, else a few ns
				if a, ok := r.armed[o.id]; ok {
					at := anchor[o.id] + 10
					if at >= a.at {
						at = a.at - min(a.at, Time(arg>>4)+1)
					}
					r.update(o, at)
				}
			case 2:
				r.remove(o)
			case 3:
				err = r.popDue(now)
			case 4:
				now += Time(arg >> 3)
			}
			if err == nil {
				err = r.check(o)
			}
			if err != nil {
				t.Fatalf("op %d (%d %d): %v", pc/2, op, arg, err)
			}
		}
	})
}

// TestDeadlineQueueZeroAllocSteadyState pins the queue's steady-state
// allocation behaviour: once the backing arrays have grown, churning
// update/pop cycles allocate nothing — through a lane that empties and
// starts over, a lane that moves its occupied part down in place, and a
// bound compaction across the lanes and the heap.
func TestDeadlineQueueZeroAllocSteadyState(t *testing.T) {
	q := NewDeadlineQueue(dlAccess)
	owners := make([]*dlOwner, 32)
	for i := range owners {
		owners[i] = &dlOwner{id: i}
	}
	at := Time(1)
	restarts := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range owners {
			q.Update(o, at)
			at += 3
		}
		for _, o := range owners[:16] {
			q.Update(o, at) // move
			at += 1
		}
		inLanes := q.slots() - len(q.heap)
		q.PopDue(at, func(*dlOwner) {})
		for i := range q.lanes {
			if len(q.lanes[i].s) != 0 {
				inLanes = 0 // an emptied lane kept its popped slots
			}
		}
		if inLanes > 0 {
			restarts++
		}
	})
	if restarts == 0 {
		t.Fatal("churn cycle never emptied a lane back to its start")
	}
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f per cycle, want 0", allocs)
	}

	// A sliding window of 32 owners armed at monotone deadlines, one due
	// per arm: the lane's tail reaches its capacity with most of the
	// array popped, and moves the rest down to the start.
	slides, i := 0, 0
	allocs = testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			o := owners[i%len(owners)]
			i++
			var tails [dqLanes]int
			for j := range q.lanes {
				tails[j] = len(q.lanes[j].s)
			}
			q.Update(o, at)
			for j := range q.lanes {
				if n := len(q.lanes[j].s); n > 1 && n <= tails[j] {
					slides++
				}
			}
			q.PopDue(at-Time(len(owners))+1, func(*dlOwner) {})
			at++
		}
	})
	if slides == 0 {
		t.Fatal("sliding window never moved a lane down")
	}
	if allocs != 0 {
		t.Fatalf("sliding window allocates %.1f per cycle, want 0", allocs)
	}
	q.PopDue(at, func(*dlOwner) {})

	// Re-arm every owner five times without a pop: later than every slot
	// (a lane), earlier (the other lane), earlier still (the heap, as no
	// lane fits), later (a lane) and early again (the heap). 160 slots for
	// 32 owners cross the 2·32+64 bound, so each cycle compacts the lanes
	// and the heap together.
	compactions := 0
	allocs = testing.AllocsPerRun(100, func() {
		for _, off := range []Time{1000, 500, 0, 1100, 200} {
			for k, o := range owners {
				heap, lanes := len(q.heap), q.slots()-len(q.heap)
				q.Update(o, at+off+Time(k))
				if len(q.heap) < heap && q.slots()-len(q.heap) < lanes {
					compactions++
				}
			}
		}
		at += 2000
		q.PopDue(at, func(*dlOwner) {})
	})
	if compactions == 0 {
		t.Fatal("re-arm cycle never compacted")
	}
	if allocs != 0 {
		t.Fatalf("compacting re-arm cycle allocates %.1f per cycle, want 0", allocs)
	}
}
