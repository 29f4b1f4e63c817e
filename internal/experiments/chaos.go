package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"juggler/internal/chaos"
	"juggler/internal/fabric"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// The chaos harness drives finite transfers through a fault-injection
// pipeline (internal/chaos) while an end-to-end invariant checker observes
// the sent byte ranges, the offload→TCP delivery point, the gro_table
// after every state change, and event-queue quiescence after the traffic
// stops. Scenarios where a reordering-resilient stack must fully absorb
// the fault assert strict in-order delivery; scenarios involving loss or
// duplication assert conservation and table/quiescence health only.

// chaosRampAt is when scenarios switch their impairments on: flows must be
// past Juggler's build-up phase (where ordering is unknowable — a delayed
// true-first packet is indistinguishable from a retransmission) before the
// fault starts, just as real faults hit established flows.
const chaosRampAt = 2 * time.Millisecond

// chaosCtx is what a scenario's build function gets to work with.
type chaosCtx struct {
	s  *sim.Sim
	sc *chaos.Scenario
	// intensity scales each scenario's base fault level (1.0 = default).
	intensity float64
	// toReceiver is the forward-path port into the receiving host — the
	// link stateful faults flap, and the tail of the impairment chain.
	toReceiver *fabric.Port
	rcv        *testbed.Host
}

// prob scales a base probability by intensity, capped at 1.
func (c *chaosCtx) prob(base float64) float64 {
	p := base * c.intensity
	if p > 1 {
		p = 1
	}
	return p
}

// dur scales a base duration by intensity.
func (c *chaosCtx) dur(base time.Duration) time.Duration {
	return time.Duration(float64(base) * c.intensity)
}

// chaosScenario is one catalog entry.
type chaosScenario struct {
	name, desc string
	// strict asserts in-order delivery to TCP — set when a resilient stack
	// must fully absorb the fault (no loss/dup in play).
	strict bool
	// queues is the receiver RX-queue count (0 = 1).
	queues int
	// disableTLP turns the tail-loss probe off (the pause scenario: a TLP
	// during the stall would inject a legitimate duplicate and blur the
	// strict-order assertion).
	disableTLP bool
	// maxExtra is the largest extra reordering delay the scenario injects;
	// the receiver's ofo_timeout is provisioned past it.
	maxExtra time.Duration
	// build wires the impairment chain (ending at ctx.toReceiver) and
	// schedules the scenario's fault steps. It returns the chain head and
	// the impairments for the report.
	build func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment)
}

// rampProb schedules prob ramps for an impairment knob at chaosRampAt.
func rampProb(ctx *chaosCtx, what string, set func(p float64), target float64) {
	ctx.sc.At(chaosRampAt, fmt.Sprintf("%s -> %.3f", what, target), func() { set(target) })
}

// chaosCatalog lists the scenarios in a fixed, report-stable order.
var chaosCatalog = []chaosScenario{
	{
		name: "reorder", desc: "random extra delay on 25% of packets (strict order)",
		strict: true, maxExtra: 250 * time.Microsecond,
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			r := chaos.NewReorderer(ctx.s, 0, 250*time.Microsecond, ctx.toReceiver)
			rampProb(ctx, "reorder prob", func(p float64) { r.Prob = p }, ctx.prob(0.25))
			return r, []chaos.Impairment{r}
		},
	},
	{
		name: "corrupt", desc: "TCP options signature scramble on 5% of packets (strict order)",
		strict: true,
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			c := chaos.NewCorruptor(ctx.s, 0, ctx.toReceiver)
			rampProb(ctx, "corrupt prob", func(p float64) { c.Prob = p }, ctx.prob(0.05))
			return c, []chaos.Impairment{c}
		},
	},
	{
		name: "pause", desc: "RX queue interrupt masked for a stall (strict order)",
		strict: true, disableTLP: true,
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			// Stall bounded under the 5ms RTO floor so no retransmission
			// fires; the ring bursts out in FIFO order on resume.
			ctx.sc.PauseQueue(chaosRampAt, ctx.rcv.RX, 0, ctx.dur(1500*time.Microsecond))
			return ctx.toReceiver, nil
		},
	},
	{
		name: "loss", desc: "0.5% Bernoulli loss",
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			l := chaos.NewLoss(ctx.s, 0, ctx.toReceiver)
			rampProb(ctx, "loss prob", func(p float64) { l.Prob = p }, ctx.prob(0.005))
			return l, []chaos.Impairment{l}
		},
	},
	{
		name: "burstloss", desc: "Gilbert–Elliott bursty loss (50% inside bursts)",
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			g := chaos.NewGilbertElliott(ctx.s, 0, 0.2, 0, 0.5, ctx.toReceiver)
			rampProb(ctx, "burst entry prob", func(p float64) { g.PGoodBad = p }, ctx.prob(0.002))
			return g, []chaos.Impairment{g}
		},
	},
	{
		name: "dup", desc: "5% duplication with up to 200us lag",
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			d := chaos.NewDuplicator(ctx.s, 0, 200*time.Microsecond, ctx.toReceiver)
			rampProb(ctx, "dup prob", func(p float64) { d.Prob = p }, ctx.prob(0.05))
			return d, []chaos.Impairment{d}
		},
	},
	{
		name: "flap", desc: "receiver link down for 2ms mid-transfer",
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			ctx.sc.FlapLink(chaosRampAt, ctx.toReceiver, ctx.dur(2*time.Millisecond))
			return ctx.toReceiver, nil
		},
	},
	{
		name: "rehash", desc: "mid-flow RSS rehash across 4 RX queues under mild reordering",
		queues: 4, maxExtra: 150 * time.Microsecond,
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			r := chaos.NewReorderer(ctx.s, 0, 150*time.Microsecond, ctx.toReceiver)
			rampProb(ctx, "reorder prob", func(p float64) { r.Prob = p }, ctx.prob(0.10))
			ctx.sc.Rehash(chaosRampAt+time.Millisecond, ctx.rcv.RX, 0x5eed)
			ctx.sc.Rehash(chaosRampAt+3*time.Millisecond, ctx.rcv.RX, 0xcafe)
			return r, []chaos.Impairment{r}
		},
	},
	{
		name: "storm", desc: "reordering + duplication + bursty loss + link flap combined",
		maxExtra: 250 * time.Microsecond,
		build: func(ctx *chaosCtx) (fabric.Sink, []chaos.Impairment) {
			g := chaos.NewGilbertElliott(ctx.s, 0, 0.2, 0, 0.5, ctx.toReceiver)
			d := chaos.NewDuplicator(ctx.s, 0, 200*time.Microsecond, g)
			r := chaos.NewReorderer(ctx.s, 0, 250*time.Microsecond, d)
			rampProb(ctx, "reorder prob", func(p float64) { r.Prob = p }, ctx.prob(0.15))
			rampProb(ctx, "dup prob", func(p float64) { d.Prob = p }, ctx.prob(0.02))
			rampProb(ctx, "burst entry prob", func(p float64) { g.PGoodBad = p }, ctx.prob(0.001))
			ctx.sc.FlapLink(chaosRampAt+2*time.Millisecond, ctx.toReceiver, ctx.dur(time.Millisecond))
			return r, []chaos.Impairment{r, d, g}
		},
	},
}

// ChaosScenarios returns the catalog's scenario names in report order.
func ChaosScenarios() []string {
	out := make([]string, len(chaosCatalog))
	for i, sc := range chaosCatalog {
		out[i] = sc.name
	}
	return out
}

// chaosSpec returns the catalog scenario called name, or nil.
func chaosSpec(name string) *chaosScenario {
	if i := slices.IndexFunc(chaosCatalog, func(sc chaosScenario) bool { return sc.name == name }); i >= 0 {
		return &chaosCatalog[i]
	}
	return nil
}

// ChaosScenarioDesc returns a scenario's one-line description ("" if
// unknown).
func ChaosScenarioDesc(name string) string {
	if sc := chaosSpec(name); sc != nil {
		return sc.desc
	}
	return ""
}

// ChaosReport is one scenario run's deterministic result: identical seeds
// produce byte-identical reports.
type ChaosReport struct {
	Scenario  string
	Stack     string
	Seed      int64
	Intensity float64
	Strict    bool

	Flows     int
	Completed int // senders that finished their transfer
	SentBytes int64
	Delivered int64 // cumulative in-order bytes at the delivery point

	Impairments []chaos.ImpairStats
	Steps       []string

	Total      int64 // invariant violations (all kinds)
	Violations []chaos.Violation
	Summary    string
}

// Failed reports whether any invariant was violated.
func (r *ChaosReport) Failed() bool { return r.Total > 0 }

// Fprint renders the report.
func (r *ChaosReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "scenario %-9s stack=%-10s seed=%d intensity=%.2f strict=%v\n",
		r.Scenario, r.Stack, r.Seed, r.Intensity, r.Strict)
	fmt.Fprintf(w, "  transfers: %d/%d complete, %d bytes sent, %d bytes delivered in order\n",
		r.Completed, r.Flows, r.SentBytes, r.Delivered)
	for _, st := range r.Impairments {
		fmt.Fprintf(w, "  impair    %v\n", st)
	}
	for _, step := range r.Steps {
		fmt.Fprintf(w, "  fault     %s\n", step)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %v\n", v)
	}
	fmt.Fprintf(w, "  %s\n", r.Summary)
}

// RunChaosScenario runs one catalog scenario against the given offload
// stack. intensity scales the fault level (1.0 = catalog default).
func RunChaosScenario(name string, kind testbed.OffloadKind, o Options, intensity float64) (*ChaosReport, error) {
	spec := chaosSpec(name)
	if spec == nil {
		return nil, fmt.Errorf("unknown chaos scenario %q (have %v)", name, ChaosScenarios())
	}
	if intensity <= 0 {
		intensity = 1
	}
	return runChaos(*spec, kind, o, intensity), nil
}

// runChaos wires the apparatus and drives one scenario to quiescence.
func runChaos(spec chaosScenario, kind testbed.OffloadKind, o Options, intensity float64) *ChaosReport {
	const (
		rate     = units.Rate10G
		flows    = 4
		drain    = 50 * time.Millisecond
		deadline = 2 * time.Second // sim time bound on the transfer phase
	)
	perFlow := quickOr(o, 2*units.MB, 512*units.KB)

	s := o.newSim()

	// Receiver: the stack under test. The ofo_timeout is provisioned past
	// the scenario's worst extra delay (plus queueing margin) — the §5.2.1
	// operating rule — so ordering is recoverable when the scenario
	// promises it.
	rcvCfg := testbed.DefaultHostConfig(kind)
	if spec.queues > 1 {
		rcvCfg.RX.Queues = spec.queues
	}
	rcvCfg.Juggler = jugglerAt(rate, spec.maxExtra+300*time.Microsecond)
	o.tune(&rcvCfg.Juggler)
	rcvCfg.Adapt = o.Adapt

	ck := chaos.NewChecker(s, chaos.Config{StrictOrder: spec.strict})
	sc := chaos.NewScenario(spec.name)

	// Forward path: sender egress → checker TX tap (ground truth before any
	// fault) → impairment chain → receiver port → receiver NIC.
	var imps []chaos.Impairment
	snd, rcv := newHostPair(s, rate, rcvCfg, "chaos->rcv", func(rcv *testbed.Host, toReceiver *fabric.Port) fabric.Sink {
		var chain fabric.Sink
		chain, imps = spec.build(&chaosCtx{s: s, sc: sc, intensity: intensity, toReceiver: toReceiver, rcv: rcv})
		return ck.TapTX(chain)
	})

	// Observation points: every delivered segment, and the gro_table after
	// every state-mutating offload entry point.
	rcv.SegmentTap = ck.ObserveSegment
	for i, j := range rcv.Jugglers {
		j.Probe = ck.TableProbe(fmt.Sprintf("rx%d", i), j)
	}

	sc.Install(s)

	// Paced finite transfers, leaving fabric headroom so drop-tail queueing
	// cannot masquerade as injected faults.
	senders := make([]*tcp.Sender, 0, flows)
	var flowKeys []packet.FiveTuple
	for i := 0; i < flows; i++ {
		scfg := tcp.SenderConfig{
			PaceRate:   rate / (flows + 1),
			DisableTLP: spec.disableTLP,
		}
		fsnd, _ := testbed.Connect(snd, rcv, scfg)
		fsnd.Write(perFlow, true)
		senders = append(senders, fsnd)
		flowKeys = append(flowKeys, fsnd.Flow())
	}

	// Run until every transfer completes (or the deadline trips — stuck
	// senders then surface through the quiescence invariant, since their
	// retransmission timers stay armed).
	completed := 0
	for s.Now() < sim.Time(deadline) {
		completed = 0
		for _, fsnd := range senders {
			if fsnd.Done() {
				completed++
			}
		}
		if completed == flows {
			break
		}
		s.RunFor(time.Millisecond)
	}

	// Settle: longer than every timeout in play (ofo/inseq flush,
	// coalescing, one RTO), then the event queue must be empty.
	s.RunFor(drain)
	ck.CheckQuiescence()
	ck.CheckSegLeaks(packet.SegPoolFromSim(s).Live())

	rep := &ChaosReport{
		Scenario:   spec.name,
		Stack:      kind.String(),
		Seed:       o.Seed,
		Intensity:  intensity,
		Strict:     spec.strict,
		Flows:      flows,
		Completed:  completed,
		SentBytes:  int64(flows) * int64(perFlow),
		Steps:      sc.Log(),
		Total:      ck.Total(),
		Violations: ck.Violations(),
		Summary:    ck.Summary(),
	}
	for _, imp := range imps {
		rep.Impairments = append(rep.Impairments, imp.Stats())
	}
	for _, ft := range flowKeys {
		rep.Delivered += ck.FlowDelivered(ft)
	}
	return rep
}

// newHostPair builds the two-host apparatus of chaos and adaptive: a
// vanilla sender and a receiver (rcvCfg) at rate, a forward path from the
// sender through the fault chain that fault builds in front of the
// receiver's port, and a clean reverse path for ACKs (the scenarios fault
// the data direction).
func newHostPair(s *sim.Sim, rate units.BitRate, rcvCfg testbed.HostConfig, port string,
	fault func(rcv *testbed.Host, toReceiver *fabric.Port) fabric.Sink) (snd, rcv *testbed.Host) {
	const prop = 200 * time.Nanosecond
	rcvCfg.LinkRate = rate
	sndCfg := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	sndCfg.LinkRate = rate
	rcv = testbed.NewHost(s, "receiver", rcvCfg)
	snd = testbed.NewHost(s, "sender", sndCfg)
	snd.IP = 0x0a000001
	rcv.IP = 0x0a000002
	toReceiver := fabric.NewPort(s, port, rate, prop, fabric.NewDropTail(0), rcv.Sink())
	snd.ConnectEgress(fault(rcv, toReceiver), prop)
	toSender := fabric.NewPort(s, "rcv->snd", rate, prop, fabric.NewDropTail(0), snd.Sink())
	rcv.ConnectEgress(toSender, 0)
	return snd, rcv
}

type chaosPoint struct {
	spec chaosScenario
	kind testbed.OffloadKind
}

func init() {
	// Every scenario against Juggler (expected clean) plus the vanilla-GRO
	// reordering row demonstrating the checker has teeth (order violations
	// are the paper's motivating failure).
	register("chaos", entry{
		desc:    "fault-injection sweep with end-to-end invariant checking",
		title:   "Fault-injection sweep: invariant violations by scenario and stack",
		columns: []string{"scenario", "stack", "strict", "done", "delivered_MB", "violations", "verdict"},
		notes:   []string{"juggler rows must be violation-free; the vanilla+reorder row must trip the order invariant (vanilla GRO makes no in-order promise under reordering — the paper's premise)"},
		shape:   chaosShape,
		fill: rows(func(Options) []chaosPoint {
			pts := make([]chaosPoint, 0, len(chaosCatalog)+1)
			for _, spec := range chaosCatalog {
				pts = append(pts, chaosPoint{spec, testbed.OffloadJuggler})
			}
			return append(pts, chaosPoint{*chaosSpec("reorder"), testbed.OffloadVanilla})
		}, func(o Options, p chaosPoint) []string {
			rep := runChaos(p.spec, p.kind, o, 1)
			verdict := "ok"
			if rep.Failed() {
				verdict = "VIOLATED"
			}
			return []string{rep.Scenario, rep.Stack, fmt.Sprintf("%v", rep.Strict),
				fmt.Sprintf("%d/%d", rep.Completed, rep.Flows),
				fF(float64(rep.Delivered) / float64(units.MB)), fI(rep.Total), verdict}
		}),
	})
}
