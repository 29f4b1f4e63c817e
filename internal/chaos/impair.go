// Package chaos is the deterministic fault-injection subsystem: composable
// fabric impairments (loss, bursty loss, duplication, corruption, random
// reordering), a timed Scenario schedule for stateful faults (link flap,
// RX-queue pause, RSS rehash), and an end-to-end invariant Checker
// installed at the offload→TCP delivery point.
//
// Every stochastic decision draws exclusively from sim.Rand(), so a run is
// bit-reproducible from its seed: same seed, same faults, same report.
//
// The package deliberately does not import internal/core — the gro_table
// audit goes through the TableView interface — so core's own tests can
// cross-check against these invariants without an import cycle.
package chaos

import (
	"fmt"
	"time"

	"juggler/internal/fabric"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// ImpairStats are one impairment element's cumulative counters, for the
// deterministic run report.
type ImpairStats struct {
	Name       string
	In         int64 // packets offered to the element
	Dropped    int64 // packets discarded
	Duplicated int64 // extra copies injected
	Corrupted  int64 // packets mutated in place
	Delayed    int64 // packets given extra delay (reordering candidates)
}

// String renders the counters compactly for reports.
func (st ImpairStats) String() string {
	return fmt.Sprintf("%s: in=%d dropped=%d duplicated=%d corrupted=%d delayed=%d",
		st.Name, st.In, st.Dropped, st.Duplicated, st.Corrupted, st.Delayed)
}

// Impairment is a fault-injecting fabric element: packets flow through it
// toward a downstream sink, and it reports what it did to them.
type Impairment interface {
	fabric.Sink
	Stats() ImpairStats
}

// Loss drops each packet independently with probability Prob (Bernoulli
// loss — the uncorrelated baseline).
type Loss struct {
	sim *sim.Sim
	dst fabric.Sink

	// Prob is the per-packet drop probability; scenarios may change it
	// mid-run (e.g. ramp loss on after flows are established).
	Prob float64

	st ImpairStats
}

// NewLoss creates a Bernoulli loss element feeding dst.
func NewLoss(s *sim.Sim, prob float64, dst fabric.Sink) *Loss {
	checkProb("chaos: loss", prob)
	return &Loss{sim: s, dst: dst, Prob: prob, st: ImpairStats{Name: "loss"}}
}

// Deliver implements fabric.Sink.
func (l *Loss) Deliver(p *packet.Packet) {
	l.st.In++
	if l.Prob > 0 && l.sim.Rand().Float64() < l.Prob {
		l.st.Dropped++
		return
	}
	l.dst.Deliver(p)
}

// Stats implements Impairment.
func (l *Loss) Stats() ImpairStats { return l.st }

// GilbertElliott is the classic two-state bursty-loss channel: a Markov
// chain alternating between a good state (loss probability LossGood) and a
// bad state (LossBad), with per-packet transition probabilities. It models
// the correlated loss bursts a failing optic or a microburst-overrun queue
// produces, which Bernoulli loss cannot.
type GilbertElliott struct {
	sim *sim.Sim
	dst fabric.Sink

	// PGoodBad / PBadGood are the per-packet state-transition
	// probabilities; scenarios may change them mid-run.
	PGoodBad, PBadGood float64
	// LossGood / LossBad are the per-packet drop probabilities in each
	// state.
	LossGood, LossBad float64

	bad bool
	// Bursts counts good→bad transitions.
	Bursts int64

	st ImpairStats
}

// NewGilbertElliott creates a bursty-loss element feeding dst, starting in
// the good state.
func NewGilbertElliott(s *sim.Sim, pGoodBad, pBadGood, lossGood, lossBad float64, dst fabric.Sink) *GilbertElliott {
	checkProb("chaos: gilbert-elliott", pGoodBad, pBadGood, lossGood, lossBad)
	return &GilbertElliott{
		sim: s, dst: dst,
		PGoodBad: pGoodBad, PBadGood: pBadGood,
		LossGood: lossGood, LossBad: lossBad,
		st: ImpairStats{Name: "burst-loss"},
	}
}

// Deliver implements fabric.Sink.
func (g *GilbertElliott) Deliver(p *packet.Packet) {
	g.st.In++
	rng := g.sim.Rand()
	if g.bad {
		if rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if g.PGoodBad > 0 && rng.Float64() < g.PGoodBad {
		g.bad = true
		g.Bursts++
	}
	loss := g.LossGood
	if g.bad {
		loss = g.LossBad
	}
	if loss > 0 && rng.Float64() < loss {
		g.st.Dropped++
		return
	}
	g.dst.Deliver(p)
}

// Stats implements Impairment.
func (g *GilbertElliott) Stats() ImpairStats { return g.st }

// Duplicator injects an extra copy of each packet with probability Prob;
// the copy trails the original by a uniform lag in [0, MaxLag] — the
// switch-retry / misbehaving-LAG duplication that exercises the offload
// layer's duplicate detection.
type Duplicator struct {
	sim       *sim.Sim
	dst       fabric.Sink
	deliverFn func(any) // fabric.DeliverFunc(dst), for the lagging copy

	// Prob is the per-packet duplication probability; scenarios may change
	// it mid-run.
	Prob float64
	// MaxLag bounds the duplicate's extra delay behind the original.
	MaxLag time.Duration

	st ImpairStats
}

// NewDuplicator creates a duplication element feeding dst.
func NewDuplicator(s *sim.Sim, prob float64, maxLag time.Duration, dst fabric.Sink) *Duplicator {
	checkProb("chaos: duplicator", prob)
	if maxLag < 0 {
		panic("chaos: negative duplicate lag")
	}
	return &Duplicator{sim: s, dst: dst, deliverFn: fabric.DeliverFunc(dst),
		Prob: prob, MaxLag: maxLag, st: ImpairStats{Name: "duplicate"}}
}

// Deliver implements fabric.Sink.
func (d *Duplicator) Deliver(p *packet.Packet) {
	d.st.In++
	if d.Prob > 0 && d.sim.Rand().Float64() < d.Prob {
		d.st.Duplicated++
		dup := *p // packets are value structs: the copy shares nothing
		lag := time.Duration(0)
		if d.MaxLag > 0 {
			lag = time.Duration(d.sim.Rand().Int63n(int64(d.MaxLag)))
		}
		d.sim.ScheduleArg(lag, d.deliverFn, &dup)
	}
	d.dst.Deliver(p)
}

// Stats implements Impairment.
func (d *Duplicator) Stats() ImpairStats { return d.st }

// Corruptor corrupts each packet with probability Prob by scrambling its
// TCP options signature while leaving the byte range intact — a
// deliverable header mutation that breaks GRO merge compatibility
// (Table 2, row 4) without fabricating payload, so order and
// conservation invariants must still hold around it. (Payload corruption
// that the checksum catches is a drop: model it with Loss.)
type Corruptor struct {
	sim *sim.Sim
	dst fabric.Sink

	// Prob is the per-packet corruption probability; scenarios may change
	// it mid-run.
	Prob float64

	st ImpairStats
}

// NewCorruptor creates a corruption element feeding dst.
func NewCorruptor(s *sim.Sim, prob float64, dst fabric.Sink) *Corruptor {
	checkProb("chaos: corruptor", prob)
	return &Corruptor{sim: s, dst: dst, Prob: prob, st: ImpairStats{Name: "corrupt"}}
}

// Deliver implements fabric.Sink.
func (c *Corruptor) Deliver(p *packet.Packet) {
	c.st.In++
	if c.Prob > 0 && c.sim.Rand().Float64() < c.Prob {
		c.st.Corrupted++
		p.OptSig ^= c.sim.Rand().Uint32() | 1 // |1 guarantees a change
	}
	c.dst.Deliver(p)
}

// Stats implements Impairment.
func (c *Corruptor) Stats() ImpairStats { return c.st }

// Reorderer gives each packet, with probability Prob, an extra delay drawn
// uniformly from [0, MaxExtra); delayed packets may overtake or be
// overtaken. It generalizes the NetFPGA two-line model of
// fabric.DelaySwitch (which is Prob = 0.5 with a fixed delay) to a
// continuous delay distribution.
type Reorderer struct {
	sim       *sim.Sim
	dst       fabric.Sink
	deliverFn func(any) // fabric.DeliverFunc(dst), for the delayed packets

	// Prob is the fraction of packets receiving extra delay; scenarios may
	// change it mid-run (e.g. start spraying mid-flow).
	Prob float64
	// MaxExtra bounds the extra delay. The receiving Juggler's ofo_timeout
	// must exceed it (plus queueing jitter) for order to be restored.
	MaxExtra time.Duration

	st ImpairStats
}

// NewReorderer creates a random-extra-delay element feeding dst.
func NewReorderer(s *sim.Sim, prob float64, maxExtra time.Duration, dst fabric.Sink) *Reorderer {
	checkProb("chaos: reorderer", prob)
	if maxExtra <= 0 {
		panic("chaos: reorderer needs a positive MaxExtra")
	}
	return &Reorderer{sim: s, dst: dst, deliverFn: fabric.DeliverFunc(dst),
		Prob: prob, MaxExtra: maxExtra, st: ImpairStats{Name: "reorder"}}
}

// Deliver implements fabric.Sink.
func (r *Reorderer) Deliver(p *packet.Packet) {
	r.st.In++
	if r.Prob > 0 && r.sim.Rand().Float64() < r.Prob {
		r.st.Delayed++
		extra := time.Duration(r.sim.Rand().Int63n(int64(r.MaxExtra)))
		r.sim.ScheduleArg(extra, r.deliverFn, p)
		return
	}
	r.dst.Deliver(p)
}

// Stats implements Impairment.
func (r *Reorderer) Stats() ImpairStats { return r.st }

// checkProb panics on out-of-range probabilities.
func checkProb(what string, probs ...float64) {
	for _, p := range probs {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("%s: probability %v out of [0,1]", what, p))
		}
	}
}
