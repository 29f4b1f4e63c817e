package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestShardGroupDeterministicMerge posts mail from multiple senders with
// colliding delivery instants and checks the inbox order is the
// documented (At, From, Seq) total order, for a serial and a parallel
// group alike.
func TestShardGroupDeterministicMerge(t *testing.T) {
	for _, n := range []int{2, 4} {
		g := NewShardGroup(1, n)
		ep := 100 * time.Microsecond

		// Epoch 1: every lane posts two messages to lane 0 at the same
		// instant, plus one addressed two epochs out (must be held back).
		g.RunEpoch(Time(0).Add(ep), func(sh *Shard) {
			at := Time(0).Add(ep) // exactly the next horizon: allowed
			sh.Post(0, at, fmt.Sprintf("s%d-a", sh.ID()))
			sh.Post(0, at, fmt.Sprintf("s%d-b", sh.ID()))
			sh.Post(0, Time(0).Add(3*ep), "late")
		})
		// Between epochs the coordinator posts at the same instant; it
		// must still sort first (From = CoordinatorID).
		g.Post(0, Time(0).Add(ep), "coord")

		// Epoch 2: each lane collects its inbox into its own slot.
		inboxes := make([][]string, n)
		collect := func(sh *Shard) {
			for _, m := range sh.Inbox() {
				inboxes[sh.ID()] = append(inboxes[sh.ID()], m.Data.(string))
			}
		}
		g.RunEpoch(Time(0).Add(2*ep), collect)
		for i := 1; i < n; i++ {
			if len(inboxes[i]) != 0 {
				t.Fatalf("n=%d: lane %d received %v, want nothing", n, i, inboxes[i])
			}
		}
		got := inboxes[0]
		want := []string{"coord"}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("s%d-a", i), fmt.Sprintf("s%d-b", i))
		}
		// The far-future posts surface only once their epoch starts.
		inboxes = make([][]string, n)
		g.RunEpoch(Time(0).Add(3*ep), collect)
		late := 0
		for _, v := range inboxes[0] {
			if v != "late" {
				t.Fatalf("unexpected late-epoch mail %v", v)
			}
			late++
		}
		if late != n {
			t.Fatalf("n=%d: %d held-back messages arrived, want %d", n, late, n)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d messages, want %d (%v)", n, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: inbox order %v, want %v", n, got, want)
			}
		}
		g.Close()
	}
}

// TestShardGroupSerialInline checks a one-lane group never starts worker
// goroutines and matches a hand-run serial Sim event for event.
func TestShardGroupSerialInline(t *testing.T) {
	g := NewShardGroup(7, 1)
	if g.started {
		t.Fatal("serial group started workers before any epoch")
	}
	var fired []Time
	sh := g.Shard(0)
	sh.Sim().Schedule(30*time.Microsecond, func() { fired = append(fired, sh.Sim().Now()) })
	sh.Sim().Schedule(70*time.Microsecond, func() { fired = append(fired, sh.Sim().Now()) })
	g.RunEpoch(Time(0).Add(50*time.Microsecond), nil)
	g.RunEpoch(Time(0).Add(100*time.Microsecond), nil)
	if g.started {
		t.Fatal("serial group started workers")
	}
	if len(fired) != 2 || fired[0] != Time(30_000) || fired[1] != Time(70_000) {
		t.Fatalf("events fired at %v", fired)
	}
	if got := sh.Sim().Now(); got != Time(100_000) {
		t.Fatalf("lane clock %v, want 100us", got)
	}
}

// TestShardGroupClocksAdvanceTogether checks idle lanes still advance to
// each horizon — the property that keeps per-lane timers comparable.
func TestShardGroupClocksAdvanceTogether(t *testing.T) {
	g := NewShardGroup(3, 4)
	defer g.Close()
	g.RunEpoch(Time(0).Add(time.Millisecond), nil)
	for i := 0; i < g.N(); i++ {
		if now := g.Shard(i).Sim().Now(); now != Time(1_000_000) {
			t.Fatalf("lane %d clock %v, want 1ms", i, now)
		}
	}
	if g.Horizon() != Time(1_000_000) {
		t.Fatalf("horizon=%v", g.Horizon())
	}
}

// TestShardGroupLagBound checks the conservative bound: lane mail
// addressed before the epoch horizon must panic rather than silently
// time-travel.
func TestShardGroupLagBound(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer g.Close()
	panicked := make(chan any, 1)
	g.RunEpoch(Time(0).Add(100*time.Microsecond), func(sh *Shard) {
		if sh.ID() != 0 {
			return
		}
		defer func() { panicked <- recover() }()
		sh.Post(1, Time(50_000), nil) // before the 100us horizon
	})
	if <-panicked == nil {
		t.Fatal("under-horizon Post did not panic")
	}
}

// TestShardGroupParallelMatchesSerial runs the same per-lane workload —
// self-rescheduling events plus cross-lane mail — on groups of size 1
// and 4 hosting the same four logical streams, and requires identical
// per-stream results. This is the miniature of the nic.ShardedRX
// queue-mod-lanes topology rule.
func TestShardGroupParallelMatchesSerial(t *testing.T) {
	const streams = 4
	run := func(lanes int) [streams]int64 {
		var acc [streams]int64
		g := NewShardGroup(11, lanes)
		defer g.Close()
		ep := 50 * time.Microsecond
		// Each stream ticks every 7us on its owning lane and accumulates
		// its own virtual timestamps.
		for st := 0; st < streams; st++ {
			st := st
			lane := g.Shard(st % lanes)
			var tick func()
			tick = func() {
				acc[st] += int64(lane.Sim().Now())
				if lane.Sim().Now() < Time(0).Add(400*time.Microsecond) {
					lane.Sim().Schedule(7*time.Microsecond, tick)
				}
			}
			lane.Sim().Schedule(7*time.Microsecond, tick)
		}
		for e := 1; e <= 10; e++ {
			g.RunEpoch(Time(0).Add(time.Duration(e)*ep), nil)
		}
		return acc
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Fatalf("stream results diverge: serial %v parallel %v", serial, parallel)
	}
}

// TestShardGroupEpochZeroAlloc proves the epoch machinery itself —
// deliver, barrier hand-off, lane run — allocates nothing in steady
// state once mailbox capacity is warm.
func TestShardGroupEpochZeroAlloc(t *testing.T) {
	g := NewShardGroup(5, 4)
	defer g.Close()
	ep := 20 * time.Microsecond
	body := func(sh *Shard) {
		// Touch the inbox and repost one reused mail payload onward.
		for range sh.Inbox() {
		}
		sh.Post((sh.ID()+1)%4, g.until.Add(0), sh)
	}
	// Warm: grow inbox/outbox capacity and start the workers.
	for i := 0; i < 8; i++ {
		g.RunEpoch(g.Horizon().Add(ep), body)
	}
	avg := testing.AllocsPerRun(200, func() {
		g.RunEpoch(g.Horizon().Add(ep), body)
	})
	if avg != 0 {
		t.Fatalf("RunEpoch allocates %.1f per epoch in steady state, want 0", avg)
	}
}
