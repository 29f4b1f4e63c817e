package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"juggler/internal/sim"
)

// TestMapOrder: results land at their point's index for every worker count,
// including counts far above n.
func TestMapOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		got := Map(workers, 17, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapEmpty: zero points yields nil without spinning up workers.
func TestMapEmpty(t *testing.T) {
	if got := Map(8, 0, func(i int) int { t.Fatal("fn called"); return 0 }); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
}

// TestMapAllPointsOnce: every index runs exactly once even under heavy
// worker contention.
func TestMapAllPointsOnce(t *testing.T) {
	const n = 500
	var calls [n]atomic.Int32
	Map(16, n, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("point %d ran %d times", i, c)
		}
	}
}

// TestMapDeterministicWithSims is the core contract: a sweep of independent
// per-point simulations yields identical results serially and at any
// parallelism. Each point runs a small event cascade on its own seeded Sim
// and reports a value derived from the sim's RNG and event order.
func TestMapDeterministicWithSims(t *testing.T) {
	point := func(i int) string {
		s := sim.New(int64(1000 + i))
		var total int64
		var hops int
		var step func()
		step = func() {
			total += s.Rand().Int63n(1 << 20)
			hops++
			if hops < 50 {
				s.Schedule(time.Duration(1+s.Rand().Intn(100))*time.Microsecond, step)
			}
		}
		s.Schedule(0, step)
		s.Run()
		return fmt.Sprintf("point=%d total=%d now=%v", i, total, s.Now())
	}

	serial := Map(1, 24, point)
	for _, workers := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		par := Map(workers, 24, point)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: parallel sweep diverged from serial:\n%v\nvs\n%v", workers, serial, par)
		}
	}
}

// TestMapPanicPropagates: a panicking point must surface on the caller, not
// crash from a worker goroutine.
func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	Map(4, 16, func(i int) int {
		if i == 7 {
			panic("point 7 exploded")
		}
		return i
	})
}

// TestWorkers: the -j resolution rule.
func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
