package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"juggler/internal/core"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/lb"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// sizing scales a repetition. scale multiplies every timed virtual window
// (1 is the calibrated repetition of at least one second of wall time on
// the 2-core reference box); quick also shrinks the fixed parts so the
// test suite finishes in seconds. Sizes are a function of the flags only,
// never of a measurement, so packet counts repeat on every commit.
type sizing struct {
	reps  int // timed repetitions after the untimed rep 0
	scale float64
	quick bool
}

// steps is the number of slices of the given length in a calibrated
// virtual window of d, scaled; never fewer than four.
func (z sizing) steps(d, slice time.Duration) int {
	n := int(float64(d)*z.scale/float64(slice) + 0.5)
	if n < 4 {
		n = 4
	}
	return n
}

// driverEvents sizes the isolated drivers of the traced pass.
func (z sizing) driverEvents() int {
	if z.quick {
		return 1 << 16
	}
	return 1 << 20
}

// counts are the cumulative deterministic counters a repetition exposes;
// the harness differences them around the timed window.
type counts struct {
	pkts   int64 // wire packets examined by the receivers' offload layers
	segs   int64 // segments those layers flushed up the stack
	bytes  int64 // in-order payload handed to applications
	events uint64
	vnow   sim.Time
}

// layerCounts are the cumulative per-layer counters read from the layers'
// exported stats; like counts they are differenced around the window.
type layerCounts struct {
	gro        gro.Counters
	core       core.Stats
	polls      int64
	segsIn     int64 // tcp receivers
	oooSegs    int64
	acks       int64
	retrans    int64 // tcp senders
	rtos       int64
	hopPkts    int64 // packets transmitted by the data-path ports
	drops      int64 // queue-full drops on those ports
	rxBusy     time.Duration
	appBusy    time.Duration
	cpuCores   int // receivers contributing to rxBusy/appBusy
	tableFlows int // current gro_table occupancy (a gauge, not differenced)
	bufferedB  int // current reorder-buffer bytes (gauge)
	pending    int // current event-queue depth (gauge)
}

// outcome is what a repetition reports once its window has closed and the
// drain has run.
type outcome struct {
	ops, failed  int64
	msgs         int     // messages completed inside the window
	p50Us, p99Us float64 // their completion times
	err          error   // first failed correctness check
}

// setLatencies summarises the window's message completion times (ns). The
// samples themselves are dropped: a retained slice would count toward
// the next repetition's live heap.
func (o *outcome) setLatencies(ns []int64) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	o.msgs, o.p50Us, o.p99Us = len(us), quantile(us, 0.5), quantile(us, 0.99)
}

// instance is one freshly built repetition of a workload. It advances in
// slices of virtual time so the harness can time each slice on its own:
// the warm-up slices first, then openWindow, then the timed slices.
type instance interface {
	steps() (warm, timed int)
	step()
	openWindow() // bookkeeping at the boundary between warm-up and window
	counts() counts
	layers() layerCounts
	finish() outcome // drain, then the correctness checks
}

// spec is one workload: a set of inputs built fresh for every repetition.
// BENCHMARK.json and README.md record why each was chosen.
type spec struct {
	name  string
	probe *probe // the reference loop that feels what the workload feels
	build func(seed int64, z sizing, tap *capture) instance
	trace func(w spec, seed int64, z sizing, log *spanLog, rootID int) *traced
}

var workloads = []spec{
	{"pair-inorder", heapProbe, func(seed int64, z sizing, tap *capture) instance {
		return newPair(seed, z, tap, pairParams{timed: 2500 * time.Millisecond})
	}, traceTCP},
	{"pair-reorder", heapProbe, func(seed int64, z sizing, tap *capture) instance {
		return newPair(seed, z, tap, pairParams{tau: 250 * time.Microsecond, timed: 2000 * time.Millisecond})
	}, traceTCP},
	{"pair-lossy", heapProbe, func(seed int64, z sizing, tap *capture) instance {
		return newPair(seed, z, tap, pairParams{tau: 250 * time.Microsecond, drop: 1e-4, timed: 2000 * time.Millisecond})
	}, traceTCP},
	{"clos-spray", heapProbe, newClos, traceTCP},
	{"rx-flowscale", gatherProbe, newFlowScale, traceFlowScale},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// tcpRun is the part the four TCP workloads share: one serial simulation,
// hosts, connections, RPC streams and the data-path ports.
type tcpRun struct {
	s         *sim.Sim
	receivers []*testbed.Host
	snds      []*tcp.Sender
	rcvs      []*tcp.Receiver
	rpcs      []*workload.RPCStream
	gens      []*workload.PoissonRPCGen
	ports     []*fabric.Port // sender-to-receiver direction only
	latNs     []int64        // RPC completion times in completion order
	lat0      int            // samples recorded before the window opened
	stopped   bool

	slice                 time.Duration // virtual time per step
	warmSteps, timedSteps int
	drain                 time.Duration // run past the window before an unfinished RPC counts as failed

	done0 int64 // RPCs completed before the window opened
	shed0 int64
}

func (r *tcpRun) connect(from, to *testbed.Host, cfg tcp.SenderConfig) (*tcp.Sender, *tcp.Receiver) {
	snd, rcv := testbed.Connect(from, to, cfg)
	r.snds = append(r.snds, snd)
	r.rcvs = append(r.rcvs, rcv)
	return snd, rcv
}

func (r *tcpRun) bulk(from, to *testbed.Host, cfg tcp.SenderConfig) {
	snd, _ := r.connect(from, to, cfg)
	snd.SetInfinite()
	snd.MaybeSend()
}

func (r *tcpRun) rpc(from, to *testbed.Host) *workload.RPCStream {
	snd, rcv := r.connect(from, to, tcp.SenderConfig{})
	st := workload.NewRPCStream(r.s, snd, rcv, nil)
	st.OnLatency = func(d time.Duration) { r.latNs = append(r.latNs, int64(d)) }
	r.rpcs = append(r.rpcs, st)
	return st
}

func (r *tcpRun) steps() (warm, timed int) { return r.warmSteps, r.timedSteps }

func (r *tcpRun) step() { r.s.RunFor(r.slice) }

func (r *tcpRun) openWindow() {
	// Completions from here on are the window's messages.
	r.lat0 = len(r.latNs)
	for _, st := range r.rpcs {
		r.done0 += st.Completed
	}
	for _, g := range r.gens {
		r.shed0 += g.Shed
	}
}

func (r *tcpRun) counts() counts {
	c := counts{events: r.s.Executed, vnow: r.s.Now()}
	for _, h := range r.receivers {
		oc := h.OffloadCounters()
		c.pkts += oc.Packets
		c.segs += oc.Segments
	}
	for _, rcv := range r.rcvs {
		c.bytes += rcv.Delivered()
	}
	return c
}

func (r *tcpRun) layers() layerCounts {
	l := layerCounts{pending: r.s.Pending(), cpuCores: len(r.receivers)}
	for _, h := range r.receivers {
		l.gro.Add(h.OffloadCounters())
		l.core.Add(h.JugglerStats())
		for i := 0; i < h.RX.NumQueues(); i++ {
			l.polls += h.RX.Queue(i).Polls
		}
		l.rxBusy += h.CPU.RX.BusyTotal()
		l.appBusy += h.CPU.App.BusyTotal()
		l.tableFlows += h.JugglerTableLen()
		l.bufferedB += h.JugglerBufferedBytes()
	}
	for _, rcv := range r.rcvs {
		l.segsIn += rcv.Stats.SegmentsIn
		l.oooSegs += rcv.Stats.OOOSegments
		l.acks += rcv.Stats.AcksSent
	}
	for _, snd := range r.snds {
		l.retrans += snd.Stats.RetransPackets
		l.rtos += snd.Stats.Timeouts
	}
	for _, pt := range r.ports {
		l.hopPkts += pt.TxPkts
		if q, ok := pt.Queue().(*fabric.DropTail); ok {
			l.drops += q.Drops
		}
	}
	return l
}

func (r *tcpRun) finish() outcome {
	r.stopped = true
	for _, g := range r.gens {
		g.Stop()
	}
	r.s.RunFor(r.drain)

	var o outcome
	for _, st := range r.rpcs {
		o.ops += st.Completed + int64(st.Outstanding())
		o.failed += int64(st.Outstanding())
	}
	o.ops -= r.done0
	// A shed arrival was refused: it is an attempted message that missed
	// every latency limit.
	shed := -r.shed0
	for _, g := range r.gens {
		shed += g.Shed
	}
	o.ops += shed
	o.failed += shed
	o.setLatencies(r.latNs[r.lat0:])

	for _, h := range r.receivers {
		for qi, j := range h.Jugglers {
			if err := j.CheckInvariants(); err != nil && o.err == nil {
				o.err = fmt.Errorf("%s queue %d: %w", h.Name, qi, err)
			}
		}
	}
	for i, rcv := range r.rcvs {
		if sent := r.snds[i].Offset(r.snds[i].DbgNxt()); rcv.Delivered() > sent && o.err == nil {
			o.err = fmt.Errorf("flow %v delivered %d of %d bytes sent", rcv.Flow(), rcv.Delivered(), sent)
		}
	}
	return o
}

// pairParams are what distinguishes the three pair workloads.
type pairParams struct {
	tau   time.Duration
	drop  float64
	timed time.Duration
}

// newPair assembles the Figure-11 apparatus the way testbed.NewNetFPGAPair
// does, from the same exported pieces, so a capture tap can sit on the
// receiver's ingress: sender -> delay switch -> port -> (drops) -> (tap)
// -> receiver, and a direct port back for ACKs. One unpaced bulk flow
// plus two closed-loop RPC clients with one request outstanding each.
func newPair(seed int64, z sizing, tap *capture, p pairParams) instance {
	const rate = units.Rate10G
	const hostProp = 200 * time.Nanosecond
	r := &tcpRun{
		s:          sim.New(seed),
		latNs:      make([]int64, 0, 1<<17),
		slice:      time.Millisecond,
		warmSteps:  250,
		timedSteps: z.steps(p.timed, time.Millisecond),
		drain:      10 * time.Millisecond,
	}
	if z.quick {
		r.warmSteps, r.drain = 20, time.Millisecond
	}
	sndCfg := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	sndCfg.LinkRate = rate
	rcvCfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvCfg.LinkRate = rate
	// DefaultTuning(10G): inseq_timeout is one 64 KB batch at line rate;
	// ofo_timeout follows the §5.2.1 provisioning rule tau + 50us.
	rcvCfg.Juggler.InseqTimeout = units.TxTimeNoOverhead(int64(units.TSOMaxBytes), rate)
	rcvCfg.Juggler.OfoTimeout = p.tau + 50*time.Microsecond

	snd := testbed.NewHost(r.s, "sender", sndCfg)
	rcv := testbed.NewHost(r.s, "receiver", rcvCfg)
	snd.IP, rcv.IP = 0x0a000001, 0x0a000002
	r.receivers = []*testbed.Host{rcv}
	tap.attach(r, rcv, rcvCfg)

	rxSide := tap.wrap(0, rcv.Sink())
	if p.drop > 0 {
		rxSide = fabric.NewDropInjector(r.s, p.drop, rxSide)
	}
	toReceiver := fabric.NewPort(r.s, "fpga->rcv", rate, hostProp, fabric.NewDropTail(0), rxSide)
	snd.ConnectEgress(fabric.NewDelaySwitch(r.s, p.tau, toReceiver), hostProp)
	toSender := fabric.NewPort(r.s, "rcv->snd", rate, hostProp, fabric.NewDropTail(0), snd.Sink())
	rcv.ConnectEgress(toSender, 0)
	r.ports = []*fabric.Port{snd.Egress(), toReceiver}

	// The window cap keeps the bulk flow's standing queue at the sender
	// from drowning the RPC latency it shares a link with. Under loss the
	// window is also pinned: recovery still retransmits, but goodput does
	// not hang on where Reno's sawtooth happened to be, so the loss paths
	// of core and tcp see a steady packet rate.
	r.bulk(snd, rcv, tcp.SenderConfig{MaxCwnd: 512 << 10, FixedWindow: p.drop > 0})
	for i := 0; i < 2; i++ {
		st := r.rpc(snd, rcv)
		next := func() {
			if !r.stopped {
				st.Send(workload.Uniform{Lo: 12 << 10, Hi: 20 << 10}.Sample(r.s.Rand()))
			}
		}
		st.OnComplete = next
		next()
	}
	return r
}

// newClos builds the 2x2 Clos at 40G under per-packet spraying: three
// senders under ToR 0, three receivers under ToR 1, nine all-to-all bulk
// flows (a 3:1 incast per receiver) and one capped open-loop Poisson RPC
// stream per sender.
func newClos(seed int64, z sizing, tap *capture) instance {
	const rate = units.Rate40G
	r := &tcpRun{
		s:          sim.New(seed),
		latNs:      make([]int64, 0, 1<<17),
		slice:      100 * time.Microsecond,
		warmSteps:  250,
		timedSteps: z.steps(150*time.Millisecond, 100*time.Microsecond),
		drain:      10 * time.Millisecond,
	}
	if z.quick {
		r.warmSteps, r.drain = 50, time.Millisecond
	}
	tb := testbed.NewClosTestbed(r.s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: rate,
		Prop: 200 * time.Nanosecond, QueueBytes: 2 * units.MB,
		UplinkLB: lb.NewPerPacket(r.s, true),
	})
	cfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	cfg.LinkRate = rate
	cfg.Juggler.InseqTimeout = units.TxTimeNoOverhead(int64(units.TSOMaxBytes), rate)
	// Three senders share two uplinks, so the sprayed paths' queues drift
	// apart by far more than the 50 us default; ofo_timeout is provisioned
	// for that skew (the §5.2.1 rule) or TCP sees the reordering.
	cfg.Juggler.OfoTimeout = 250 * time.Microsecond

	var senders []*testbed.Host
	for i := 0; i < 3; i++ {
		senders = append(senders, tb.AddHost(0, cfg))
	}
	for i := 0; i < 3; i++ {
		i := i
		h := tb.AddHostVia(1, cfg, func(rx fabric.Sink) fabric.Sink { return tap.wrap(i, rx) })
		tap.attach(r, h, cfg)
		r.receivers = append(r.receivers, h)
		r.ports = append(r.ports, tb.Clos.DownlinkPort(h.IP))
	}
	for _, h := range senders {
		r.ports = append(r.ports, h.Egress())
	}
	r.ports = append(r.ports, tb.Clos.UplinkPorts(0)...)
	for _, sp := range tb.Clos.Spines {
		r.ports = append(r.ports, sp.Ports(r.receivers[0].IP)...)
	}

	for _, from := range senders {
		for _, to := range r.receivers {
			r.bulk(from, to, tcp.SenderConfig{MaxCwnd: 256 << 10})
		}
	}
	for i, from := range senders {
		g := workload.NewPoissonRPCGen(r.s, []*workload.RPCStream{r.rpc(from, r.receivers[i])}, 4<<10, 20000)
		g.MaxOutstanding = 32
		g.Dist = workload.Uniform{Lo: 3 << 10, Hi: 5 << 10}
		g.Start()
		r.gens = append(r.gens, g)
	}
	return r
}

// flowScaleRun drives the shardedrx experiment's traffic through
// testbed.ShardedHost with a bench-owned copy of that experiment's loop:
// every round each flow sends one MSS packet, 2 % are dropped for good
// and 25 % arrive two rounds late, and halfway through an RSS rehash
// moves every flow to another queue. No TCP, no fabric: arrivals are
// staged by the coordinator on a fixed virtual schedule (open loop).
//
// A round's packets reach the wire spread uniformly over the round and
// wait in the ring for their group's poll in the next one, which hands
// them to the offload layer as one batch per queue. The wire instant is the
// NIC-arrival stamp, so message latency is ring wait plus Juggler's hold
// and its distribution is continuous instead of sitting on the timeouts.
type flowScaleRun struct {
	h   *testbed.ShardedHost
	rng *rand.Rand

	flows, warmRounds, rounds int // rounds counts warm-up and timed ones
	stepN                     int // steps taken: flowScaleGroups to a round
	lateDue                   []int
	lateSeq                   []uint32
	sentPkts                  int64
	taps                      []queueTap
}

// queueTap is one queue's delivery tap state. Queues on different lanes
// fire concurrently, so each has its own, padded to a cache line.
type queueTap struct {
	gotPkts int64
	lat     []int64 // ns, NIC arrival to delivery, one per delivered segment
	lat0    int     // samples recorded before the window opened

	_ [24]byte
}

const (
	flowScaleInterval = 20 * time.Microsecond // one round
	flowScaleQueues   = 8
	// Flow f belongs to group f mod flowScaleGroups, and the groups are
	// polled a tenth of a round apart: one step stages and runs one
	// group, which keeps a step to a few milliseconds of host time.
	flowScaleGroups = 10
	rehashSalt      = 0x9e3779b9
)

func newFlowScale(seed int64, z sizing, _ *capture) instance {
	return buildFlowScale(seed, z, testbed.OffloadJuggler, 1)
}

// buildFlowScale is newFlowScale with the offload and the lane count
// open, which the traced pass varies.
func buildFlowScale(seed int64, z sizing, kind testbed.OffloadKind, lanes int) *flowScaleRun {
	r := &flowScaleRun{
		rng:        sim.New(seed).Rand(), // a coordinator sim that runs no events: it owns the fates' source
		flows:      100000,
		warmRounds: 4,
	}
	if z.quick {
		r.flows = 4000
	}
	r.rounds = r.warmRounds + z.steps(16*flowScaleInterval, flowScaleInterval)
	r.lateDue = make([]int, r.flows)
	r.lateSeq = make([]uint32, r.flows)
	r.taps = make([]queueTap, flowScaleQueues)
	for i := range r.taps {
		// Room for RSS skew, so recording never grows a slice mid-window.
		r.taps[i].lat = make([]int64, 0, r.flows*r.rounds/flowScaleQueues*5/4)
	}
	r.h = testbed.NewShardedHost(seed, testbed.ShardedHostConfig{
		RX: nic.ShardedRXConfig{
			Queues:    flowScaleQueues,
			Shards:    lanes,
			PollEvery: 10 * time.Microsecond,
		},
		Offload: kind,
		Juggler: core.Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			// Twice the fair share per queue absorbs RSS skew without
			// mass eviction.
			MaxFlows: 2*r.flows/flowScaleQueues + 64,
		},
		DeliverTap: func(queue int, seg *packet.Segment) {
			t := &r.taps[queue]
			t.gotPkts += int64(seg.Pkts)
			t.lat = append(t.lat, int64(seg.Stamps[packet.HopDeliver]-seg.Stamps[packet.HopNICRx]))
		},
	})
	return r
}

// send stages one packet for the poll at instant at.
func (r *flowScaleRun) send(f int, seq uint32, at sim.Time, last bool) {
	pkt := packet.Packet{
		Flow: packet.FiveTuple{
			SrcIP: uint32(f/65000) + 1, DstIP: 9,
			SrcPort: uint16(f % 65000), DstPort: 5001, Proto: packet.ProtoTCP,
		},
		Seq: 1 + seq*units.MSS, PayloadLen: units.MSS,
		Flags: packet.FlagACK,
	}
	if last {
		pkt.Flags |= packet.FlagPSH
	}
	wire := at.Add(-time.Duration(r.rng.Int63n(int64(flowScaleInterval))))
	packet.Stamp(&pkt.Stamps, packet.HopNICRx, wire)
	r.sentPkts++
	r.h.RX.Inject(at, &pkt)
}

func (r *flowScaleRun) steps() (warm, timed int) {
	return r.warmRounds * flowScaleGroups, (r.rounds - r.warmRounds) * flowScaleGroups
}

// step stages and runs one group of one round: round n occupies the wire
// during interval n and group g of it is polled g tenths into interval
// n+1.
func (r *flowScaleRun) step() {
	const sub = flowScaleInterval / flowScaleGroups
	n, g := r.stepN/flowScaleGroups, r.stepN%flowScaleGroups
	if g == 0 && n == r.rounds/2 {
		r.h.RX.Rehash(rehashSalt)
	}
	at := sim.Time(0).Add(time.Duration(n+1)*flowScaleInterval + time.Duration(g)*sub)
	for f := g; f < r.flows; f += flowScaleGroups {
		if r.lateDue[f] == n+1 { // stored as round+1 so 0 means none
			r.lateDue[f] = 0
			r.send(f, r.lateSeq[f], at, false)
		}
		d := r.rng.Intn(100)
		switch {
		case d < 2 && n < r.rounds-2:
			// Dropped: the hole only clears through ofo expiry.
		case d < 27 && n < r.rounds-2:
			r.lateDue[f] = n + 2 + 1
			r.lateSeq[f] = uint32(n)
		default:
			r.send(f, uint32(n), at, n == r.rounds-1)
		}
	}
	r.h.RX.RunEpoch(at.Add(sub))
	r.stepN++
}

func (r *flowScaleRun) openWindow() {
	for i := range r.taps {
		r.taps[i].lat0 = len(r.taps[i].lat)
	}
}

func (r *flowScaleRun) counts() counts {
	oc := r.h.RX.Counters()
	c := counts{
		pkts: oc.Packets, segs: oc.Segments, bytes: r.h.DeliveredBytes(),
		vnow: r.h.RX.Group().Horizon(),
	}
	g := r.h.RX.Group()
	for i := 0; i < g.N(); i++ {
		c.events += g.Shard(i).Sim().Executed
	}
	return c
}

func (r *flowScaleRun) layers() layerCounts {
	l := layerCounts{
		gro:   r.h.RX.Counters(),
		core:  r.h.MergedStats(),
		polls: int64(r.stepN) * flowScaleQueues, // one staged batch per queue and step
	}
	g := r.h.RX.Group()
	for i := 0; i < g.N(); i++ {
		l.pending += g.Shard(i).Sim().Pending()
	}
	for _, j := range r.h.Jugglers {
		l.tableFlows += j.TableLen()
		l.bufferedB += j.BufferedBytes()
	}
	return l
}

func (r *flowScaleRun) finish() outcome {
	// A millisecond of idle epochs lets every timeout expire; Finish
	// flushes what is left.
	r.h.RX.RunEpochsUntil(r.h.RX.Group().Horizon().Add(time.Millisecond), flowScaleInterval)
	err := r.h.CheckInvariants()
	r.h.Finish()

	// The warm rounds' packets are attempted messages too, but the
	// latency distribution is the window's.
	o := outcome{ops: r.sentPkts, failed: r.sentPkts, err: err}
	var lat []int64
	for i := range r.taps {
		o.failed -= r.taps[i].gotPkts
		lat = append(lat, r.taps[i].lat[r.taps[i].lat0:]...)
	}
	if live := r.h.RX.SegLive(); live != 0 && o.err == nil {
		o.err = fmt.Errorf("%d segments still live after the drain", live)
	}
	o.setLatencies(lat)
	return o
}
