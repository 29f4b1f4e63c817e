// Package sweep is the deterministic fan-out runner behind every parameter
// sweep in the repo: τ−τ0 grids, flow-count scans, load levels, chaos
// scenario catalogs.
//
// Every figure in §5 of the paper is such a sweep, and each (parameter
// point, seed) pair is an independent simulation: it builds its own
// sim.Sim, its own topology, and shares no mutable state with any other
// point. That independence is the whole parallelism story — sweep.Map runs
// the points on a bounded worker pool and commits each result into a slice
// at the point's index, so the assembled output is byte-identical to what a
// serial loop would have produced, regardless of worker count or
// interleaving. Determinism comes from per-point seeding (inside fn), not
// from execution order.
//
// The contract on fn: it must not touch shared mutable state. Reading
// shared config is fine; the experiment harness's per-point run functions
// (which allocate everything from their own sim.New(seed)) satisfy this by
// construction. Telemetry must be attached to at most one designated point
// — see internal/experiments.Options.point.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -j style worker-count request: n <= 0 means "use all
// cores" (GOMAXPROCS); anything else is returned as given. The result is
// additionally capped at the point count by Map, so over-asking is
// harmless.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on min(workers, n) goroutines and
// returns the results indexed by i. workers <= 1 (or n <= 1) degrades to a
// plain serial loop on the calling goroutine — no goroutines, no
// synchronization — so the serial path stays exactly what it was before
// this package existed. (A "use all cores" request is resolved to a
// concrete count by Workers before it reaches Map; here 0 means serial,
// keeping zero-valued Options safe.)
//
// Work is handed out by an atomic next-index counter, so early-finishing
// workers steal the remaining points; results are committed by index, never
// appended, so the output order is independent of scheduling. A panic in fn
// propagates to the caller (after the other workers drain) rather than
// killing the process from a worker goroutine.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
