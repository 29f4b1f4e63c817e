package adapt

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
)

// Controller tuning. These are fixed: the paper's Juggler exposes only its
// two timeouts and the table size, and the controller's own bounds are not
// knobs a deployment turns.
const (
	// interval is the control-loop tick period. The loop is
	// self-quiescing: a tick only re-arms while packets keep arriving, so
	// an idle simulation drains to an empty event queue.
	interval = time.Millisecond

	// minInseq/maxInseq bound inseq_timeout.
	minInseq, maxInseq = 5 * time.Microsecond, 150 * time.Microsecond
	// minOfo/maxOfo bound ofo_timeout.
	minOfo, maxOfo = 25 * time.Microsecond, 2 * time.Millisecond

	// batchTime is the time to receive one maximum GRO batch (64 KB) at
	// 10 Gb/s — the paper's §5.2.1 inseq_timeout rule of thumb. Hosts of
	// every link rate use this 10 Gb/s figure.
	batchTime = 52 * time.Microsecond

	// headroom multiplies the observed peak skew into the ofo_timeout
	// target: the timeout must cover the next straggler, not the last one.
	headroom = 1.25
	// deadband is the hysteresis band: a target within +/-25% of the
	// current value is not acted on. Without it, estimate noise turns into
	// timeout churn — the flap the watchdog would flag.
	deadband = 0.25
	// maxStep bounds one tick's multiplicative move: the loop converges
	// geometrically instead of slewing on one outlier.
	maxStep = 1.5
	// minSamples is the measured-packet count a tick needs before it
	// trusts the estimates.
	minSamples = 64
	// quietWindows is how many consecutive reordering-free ticks relax
	// the timeouts toward their floors and arm idle-flow trimming.
	quietWindows = 8
	// lowerPatience is how many consecutive expiry-free ticks earn one
	// downward ofo_timeout probe. A probe that causes expiries is reverted
	// and doubles the patience (up to maxPatience), so a loop that keeps
	// rediscovering the same floor stops probing instead of oscillating.
	lowerPatience = 4
	// idleFrac sets eviction aggressiveness while quiet: the inactive
	// list is trimmed to idleFrac*MaxFlows entries. While reordering is
	// live, idle entries are kept — a flow's watermark state is exactly
	// what makes its next straggler cheap.
	idleFrac = 0.25
)

// Controller decision causes and knob notes (constant strings: recording
// through the forensics ring never allocates).
const (
	CauseRaise    = "raise"
	CauseLower    = "lower"
	CauseIdleTrim = "idle-trim"

	NoteInseq = "inseq_timeout"
	NoteOfo   = "ofo_timeout"
)

// Stats counts the controller's activity.
type Stats struct {
	// Ticks is how many control intervals ran.
	Ticks int64
	// Retunes is how many knob changes were applied (inseq and ofo count
	// separately).
	Retunes int64
}

// Controller closes the detect -> decide -> actuate loop: it owns the
// sketch detector, ticks on a self-quiescing virtual timer, and drives
// every bound Juggler's timeouts and idle-eviction bound through
// core.Retune. All bound instances receive identical tuning — they are
// the RX queues of one host and see the same fabric.
type Controller struct {
	sim   *sim.Sim
	det   *Detector
	timer *sim.Timer
	tel   *telemetry.Sink

	targets  []*core.Juggler
	maxFlows int

	curInseq, curOfo time.Duration
	lastPkts         uint64
	lastMeasured     uint64
	lastReordered    uint64
	quiet            int
	trimming         bool

	// peak and coalescePeak are decaying maxima of the per-window skew
	// peak and the coalesce estimate: they rise instantly to a new high
	// and relax geometrically (1/8 per tick). Targeting the decayed peak
	// instead of each window's raw value is what keeps the loop from
	// chasing sampling noise — a light window (few reordered packets)
	// would otherwise read as "skew dropped" and trigger a lower that the
	// next full window immediately reverts.
	peak         time.Duration
	coalescePeak time.Duration

	// Downward-probe state for ofo_timeout. The detector's lateness is a
	// lower bound on path skew (dense in-order traffic refreshes the
	// watermark constantly, shrinking the measured gap), so the loop never
	// lowers on estimates alone: it waits out patience expiry-free ticks,
	// steps down once, and watches the Jugglers' own ofo-expiry counters
	// for harm. A probe that causes expiries is reverted and doubles the
	// patience.
	lastExpiries int64
	sinceExpiry  int
	patience     int
	probing      bool
	preProbe     time.Duration

	Stats Stats

	gRate, gSkew, gWinMax, gCoalesce *telemetry.Gauge
	gInseq, gOfo                     *telemetry.Gauge
}

// NewController builds a controller bound to the simulation clock and
// its attached telemetry sink (nil sink: gauges become no-ops).
func NewController(s *sim.Sim) *Controller {
	c := &Controller{sim: s, det: NewDetector(),
		tel: telemetry.FromSim(s), patience: lowerPatience}
	c.timer = sim.NewTimer(s, c.tick)
	r := c.tel.Reg()
	c.gRate = r.Gauge("adapt_reorder_rate_ppm", "Detector reordering rate, parts per million.")
	c.gSkew = r.Gauge("adapt_skew_ewma_ns", "Detector smoothed reordering lateness (path skew), ns.")
	c.gWinMax = r.Gauge("adapt_skew_winmax_ns", "Peak lateness in the last control window, ns.")
	c.gCoalesce = r.Gauge("adapt_coalesce_ewma_ns", "Detector smoothed NIC coalescing delay, ns.")
	c.gInseq = r.Gauge("adapt_inseq_timeout_ns", "Controller-applied inseq_timeout, ns.")
	c.gOfo = r.Gauge("adapt_ofo_timeout_ns", "Controller-applied ofo_timeout, ns.")
	r.CounterOf("adapt_retunes_total", "Knob changes applied by the adapt controller.", "", "", &c.Stats.Retunes)
	return c
}

// Detector exposes the sketch (read-only use: snapshots in reports).
func (c *Controller) Detector() *Detector { return c.det }

// Timeouts returns the timeouts the controller currently has applied.
func (c *Controller) Timeouts() (inseq, ofo time.Duration) {
	return c.curInseq, c.curOfo
}

// Wrap interposes the controller's detector in front of one Juggler
// instance and registers it as an actuation target. The first wrapped
// instance seeds the controller's notion of the current timeouts.
func (c *Controller) Wrap(j *core.Juggler) gro.Offload {
	if len(c.targets) == 0 {
		jc := j.Config()
		c.curInseq, c.curOfo = jc.InseqTimeout, jc.OfoTimeout
		c.maxFlows = jc.MaxFlows
		c.gInseq.Set(int64(c.curInseq))
		c.gOfo.Set(int64(c.curOfo))
	}
	c.targets = append(c.targets, j)
	return &tap{c: c, j: j}
}

// tap is the per-queue observing offload: measure, then hand the packet
// to the wrapped Juggler untouched.
type tap struct {
	c *Controller
	j *core.Juggler
}

// ReceiveBatch implements gro.Offload: observe every packet at the
// batch's (shared) instant, arm the control timer once — ArmIfIdle is
// idempotent while armed, so per-packet arming would be identical — and
// hand the batch to the wrapped Juggler.
func (t *tap) ReceiveBatch(batch []*packet.Packet) {
	now := t.c.sim.Now()
	for _, p := range batch {
		t.c.det.Observe(p, now)
	}
	t.c.timer.ArmIfIdle(interval)
	t.j.ReceiveBatch(batch)
}

// PollComplete implements gro.Offload.
func (t *tap) PollComplete() { t.j.PollComplete() }

// Counters implements gro.Offload.
func (t *tap) Counters() gro.Counters { return t.j.Counters() }

// tick is one control interval: read the detector, derive targets, apply
// hysteresis and bounded steps, actuate. It re-arms itself only while
// traffic flows; otherwise the next Observe restarts the loop, so a
// drained simulation goes quiescent.
func (c *Controller) tick() {
	c.Stats.Ticks++
	est := c.det.Snapshot()
	winMax := c.det.TakeWindowMax()

	c.peak -= c.peak / 8
	if winMax > c.peak {
		c.peak = winMax
	}
	c.coalescePeak -= c.coalescePeak / 8
	if est.CoalesceEWMA > c.coalescePeak {
		c.coalescePeak = est.CoalesceEWMA
	}

	c.gRate.Set(int64(est.ReorderRate * 1e6))
	c.gSkew.Set(int64(est.SkewEWMA))
	c.gWinMax.Set(int64(winMax))
	c.gCoalesce.Set(int64(est.CoalesceEWMA))

	active := est.Packets != c.lastPkts
	newMeasured := est.Measured - c.lastMeasured
	newReordered := est.Reordered - c.lastReordered
	c.lastPkts, c.lastMeasured, c.lastReordered = est.Packets, est.Measured, est.Reordered
	if active {
		c.timer.Reset(interval)
	}
	if len(c.targets) == 0 {
		return
	}

	if newReordered == 0 {
		if c.quiet < quietWindows {
			c.quiet++
		}
	} else {
		c.quiet = 0
	}
	relaxed := c.quiet >= quietWindows
	live := newMeasured >= minSamples

	// inseq_timeout tracks the batching rule of thumb: one max batch at
	// line rate plus the peak interrupt-coalescing delay.
	var targetInseq time.Duration
	switch {
	case relaxed:
		targetInseq = clamp(batchTime+est.CoalesceEWMA, minInseq, maxInseq)
	case live && newReordered > 0:
		targetInseq = clamp(batchTime+c.coalescePeak, minInseq, maxInseq)
	default:
		targetInseq = c.curInseq
	}

	targetOfo, exactOfo := c.ofoTarget(est, winMax, relaxed, live)

	newInseq := step(c.curInseq, targetInseq, minInseq, maxInseq)
	newOfo := step(c.curOfo, targetOfo, minOfo, maxOfo)
	if exactOfo {
		// Deliberate probe or revert: apply verbatim, outside the deadband.
		newOfo = clamp(targetOfo.Round(time.Microsecond), minOfo, maxOfo)
	}

	var r core.Retune
	if newInseq != c.curInseq {
		r.InseqTimeout = newInseq
		c.record(newInseq, c.curInseq, NoteInseq)
		c.curInseq = newInseq
		c.gInseq.Set(int64(newInseq))
	}
	if newOfo != c.curOfo {
		r.OfoTimeout = newOfo
		c.record(newOfo, c.curOfo, NoteOfo)
		c.curOfo = newOfo
		c.gOfo.Set(int64(newOfo))
	}
	if relaxed {
		if r.MaxIdleFlows = int(idleFrac * float64(c.maxFlows)); r.MaxIdleFlows < 1 {
			r.MaxIdleFlows = 1
		}
		if !c.trimming {
			c.trimming = true
			c.tel.Record(&telemetry.Record{Layer: telemetry.LayerHost, Op: telemetry.OpRetune,
				Cause: CauseIdleTrim, N: int64(r.MaxIdleFlows), Note: "inactive-list bound"})
		}
	} else {
		c.trimming = false
	}

	if r.InseqTimeout > 0 || r.OfoTimeout > 0 || r.MaxIdleFlows > 0 {
		for _, j := range c.targets {
			j.Retune(r)
		}
	}
}

// maxPatience caps the exponential backoff of failed downward probes.
const maxPatience = 64

// probeStep is the gentle factor a downward probe divides ofo_timeout by.
// A probe is a deliberate experiment against live traffic: the smaller the
// step, the smaller the leak when it turns out the current value was
// load-bearing. (Raises still move by the stronger maxStep.)
const probeStep = 1.25

// ofoTarget derives this tick's ofo_timeout target; exact means the value
// must be applied verbatim (probe/revert) rather than eased through the
// deadband and step bound. Raising is driven by evidence of harm — ofo
// expiries in the bound Jugglers while in-band stragglers are arriving
// (winMax > 0; expiries without stragglers are loss inferences, which a
// longer timeout cannot fix). Lowering never trusts the lateness estimate
// (a lower bound): after patience expiry-free ticks the loop probes one
// step down and reverts, doubling patience, if the probe causes expiries.
// The decayed skew peak sets how far one raise may jump ahead of the
// geometric step.
func (c *Controller) ofoTarget(est Estimates, winMax time.Duration, relaxed, live bool) (target time.Duration, exact bool) {
	var exp int64
	for _, j := range c.targets {
		exp += j.Stats.OfoTimeouts
	}
	newExp := exp - c.lastExpiries
	c.lastExpiries = exp

	if relaxed {
		// Sustained in-order traffic: decay toward the floor and rearm the
		// probe machinery for the next skew episode.
		c.probing = false
		c.patience = lowerPatience
		c.sinceExpiry = 0
		return minOfo, false
	}

	if newExp > 0 {
		c.sinceExpiry = 0
		if c.probing {
			// Our own probe caused the expiries: revert and back off.
			c.probing = false
			if c.patience < maxPatience {
				c.patience *= 2
			}
			return c.preProbe, true
		}
		if winMax > 0 {
			// Genuine under-provisioning: jump to the headroomed skew peak
			// if it is known, and keep ratcheting geometrically past it
			// while expiries continue (step bounds the move either way).
			// Every raise is also evidence the current level was load-
			// bearing, so future downward probes wait longer — the loop
			// settles high rather than wobbling around the true floor.
			if c.patience < maxPatience {
				c.patience *= 2
			}
			base := est.SkewEWMA
			if c.peak > base {
				base = c.peak
			}
			t := time.Duration(headroom * float64(base))
			if ratchet := time.Duration(float64(c.curOfo) * maxStep); ratchet > t {
				t = ratchet
			}
			return clamp(t, minOfo, maxOfo), false
		}
		return c.curOfo, false
	}

	if c.sinceExpiry < maxPatience {
		c.sinceExpiry++
	}
	if c.probing && c.sinceExpiry >= c.patience {
		// Probe held for a full patience run: accept the value.
		c.probing = false
		c.sinceExpiry = 0
	}
	if !c.probing && live && c.sinceExpiry >= c.patience && c.curOfo > minOfo {
		c.probing = true
		c.preProbe = c.curOfo
		c.sinceExpiry = 0
		return time.Duration(float64(c.curOfo) / probeStep), true
	}
	return c.curOfo, false
}

// record counts one knob change and records it (flight recorder and
// global decision ring).
func (c *Controller) record(now, was time.Duration, knob string) {
	c.Stats.Retunes++
	cause := CauseRaise
	if now < was {
		cause = CauseLower
	}
	c.tel.Record(&telemetry.Record{Layer: telemetry.LayerHost, Op: telemetry.OpRetune,
		Cause: cause, N: int64(now), Note: knob})
}

// step applies hysteresis (hold inside the deadband) and the bounded
// multiplicative move toward target, rounded to whole microseconds so
// applied values stay readable and comparisons stay exact.
func step(cur, target, min, max time.Duration) time.Duration {
	if cur <= 0 {
		return target
	}
	diff := target - cur
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) <= deadband*float64(cur) {
		return cur
	}
	next := target
	if target > cur {
		if s := time.Duration(float64(cur) * maxStep); s < next {
			next = s
		}
	} else {
		if s := time.Duration(float64(cur) / maxStep); s > next {
			next = s
		}
	}
	return clamp(next.Round(time.Microsecond), min, max)
}

// clamp bounds d to [min, max].
func clamp(d, min, max time.Duration) time.Duration {
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}
