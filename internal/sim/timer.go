package sim

import "time"

// Timer is a restartable one-shot timer, analogous to a kernel high-
// resolution timer. It is the building block for Juggler's per-gro_table
// timeout callback, TCP retransmission timers, and NIC interrupt
// coalescing.
//
// A Timer wraps at most one pending Event at a time; Reset on a pending
// timer moves that event to the new deadline. Timers are re-armed on hot
// paths (NIC coalescing, per-flow timeouts, RTO on every ACK), so a re-arm
// allocates nothing: a far timer that stays far costs one heap sift in
// place, any other re-arm an unlink and a refile.
type Timer struct {
	sim *Sim
	fn  func()
	ev  *Event // non-nil exactly while a firing is pending
}

// NewTimer creates a timer that invokes fn when it fires. The timer starts
// stopped.
func NewTimer(s *Sim, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{sim: s, fn: fn}
}

// Reset (re)arms the timer to fire after d. Any previously pending firing
// is cancelled.
func (t *Timer) Reset(d time.Duration) { t.ResetAt(t.sim.after(d)) }

// ResetAt (re)arms the timer to fire at absolute time at. The firing takes
// the place in the event order that a Stop followed by a fresh schedule
// would have given it.
func (t *Timer) ResetAt(at Time) {
	if t.ev != nil {
		t.sim.rekey(t.ev, at)
		return
	}
	t.ev = t.sim.ScheduleArgAt(at, fireTimer, t)
}

// ArmIfIdle arms the timer for delay d only if it is not already pending.
// Returns true if it armed the timer.
func (t *Timer) ArmIfIdle(d time.Duration) bool {
	if t.Pending() {
		return false
	}
	t.Reset(d)
	return true
}

// Stop cancels a pending firing. Returns true if a firing was pending.
func (t *Timer) Stop() bool {
	if t.ev != nil {
		ok := t.ev.Cancel()
		t.ev = nil
		return ok
	}
	return false
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != nil }

// Deadline returns the time the timer will fire; only meaningful when
// Pending is true.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return 0
	}
	return t.ev.Time()
}

// fireTimer is every timer's event callback; the timer is the argument.
func fireTimer(arg any) {
	t := arg.(*Timer)
	t.ev = nil
	t.fn()
}

// Ticker invokes fn every period until stopped. Periods are measured from
// the scheduled firing time, not the completion time, so the tick train
// does not drift.
type Ticker struct {
	timer  *Timer
	period time.Duration
	fn     func()
	on     bool
}

// NewTicker creates a stopped ticker.
func NewTicker(s *Sim, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{period: period, fn: fn}
	t.timer = NewTimer(s, t.tick)
	return t
}

// Start begins ticking; the first tick fires one period from now.
func (t *Ticker) Start() {
	if t.on {
		return
	}
	t.on = true
	t.timer.Reset(t.period)
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.on = false
	t.timer.Stop()
}

func (t *Ticker) tick() {
	if !t.on {
		return
	}
	t.timer.Reset(t.period)
	t.fn()
}
