// Package nic models the network interface card on both sides:
//
//   - TX: TCP Segmentation Offload (TSO) — the host hands the NIC up to
//     64 KB super-segments which the NIC cuts into MTU packets emitted back
//     to back at line rate, the cause of the ON/OFF burstiness (§4.3) that
//     lets Juggler track so few flows;
//   - RX: Receive-Side Scaling (RSS) hashing of flows to receive queues,
//     interrupt coalescing (a time bound and a frame-count bound), and the
//     NAPI polling loop that drains the ring and feeds the receive-offload
//     layer, charging the RX core via the CPU model.
package nic

import (
	"fmt"
	"time"

	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// TX is the transmit side: it segments TSO super-segments into wire packets
// and enqueues them on the host's egress port.
type TX struct {
	sim     *sim.Sim
	port    *fabric.Port
	pool    *packet.Pool
	sampler *packet.StampSampler

	nextTSOID uint64

	// TSOBursts / TxPackets count emitted traffic.
	TSOBursts int64
	TxPackets int64

	// tel is the run's telemetry sink; nil disables recording.
	tel     *telemetry.Sink
	track   int32
	txIface int32
}

// NewTX creates a transmit engine bound to the host egress port. When a
// telemetry sink is attached to the simulation, outgoing packets are
// captured on a "<port>/tx" interface and TSO bursts recorded as events.
func NewTX(s *sim.Sim, port *fabric.Port) *TX {
	tx := &TX{sim: s, port: port, pool: packet.PoolFromSim(s),
		sampler: packet.StampSamplerFromSim(s), txIface: -1}
	if k := telemetry.FromSim(s); k != nil {
		tx.tel = k
		tx.track = k.Track(port.Name)
		tx.txIface = k.Iface(port.Name + "/tx")
		k.Reg().CounterOf("nic_tso_bursts_total",
			"TSO super-segments handed to the NIC.", "port", port.Name, &tx.TSOBursts)
		k.Reg().CounterOf("nic_tx_packets_total",
			"Wire packets emitted by the NIC.", "port", port.Name, &tx.TxPackets)
	}
	return tx
}

// SendTSO emits one super-segment of payloadLen bytes (<= 64 KB) starting
// at seq on the given flow. The template supplies flags, priority, options
// signature and path tag; flags that terminate a segment (PSH/FIN) are set
// only on the last packet. Every packet of the burst shares one TSOID.
func (tx *TX) SendTSO(tmpl packet.Packet, seq uint32, payloadLen int) {
	if payloadLen <= 0 {
		panic("nic: empty TSO")
	}
	if payloadLen > units.TSOMaxBytes {
		panic("nic: TSO larger than 64KB")
	}
	tx.nextTSOID++
	tx.TSOBursts++
	tx.tel.Record(&telemetry.Record{Layer: telemetry.LayerNIC, Op: telemetry.OpSend,
		Track: tx.track, Flow: tmpl.Flow, Seq: seq, N: int64(payloadLen), Note: "tso"})
	id := tx.nextTSOID
	endFlags := tmpl.Flags
	midFlags := tmpl.Flags &^ (packet.FlagPSH | packet.FlagFIN | packet.FlagURG)
	for off := 0; off < payloadLen; off += units.MSS {
		n := units.MSS
		last := off+n >= payloadLen
		if last {
			n = payloadLen - off
		}
		p := tx.pool.Get()
		*p = tmpl
		p.Seq = seq + uint32(off)
		p.PayloadLen = n
		p.TSOID = id
		p.SentAt = tx.sim.Now()
		if last {
			p.Flags = endFlags
		} else {
			p.Flags = midFlags
		}
		// The 1-in-N stamp sampling decision is made here, once per wire
		// packet, after the template (with its tcp-send stamp) was copied
		// in: an excluded packet travels with zero Stamps and SkipStamps
		// set, so every later hop skips its stamp write.
		tx.sampler.Apply(p)
		tx.TxPackets++
		tx.tel.CapturePacket(tx.txIface, false, p)
		tx.port.Send(p)
	}
}

// SendRaw transmits a single pre-built packet (ACKs, control).
func (tx *TX) SendRaw(p *packet.Packet) {
	tx.sampler.Apply(p)
	p.SentAt = tx.sim.Now()
	tx.TxPackets++
	tx.tel.CapturePacket(tx.txIface, false, p)
	tx.port.Send(p)
}

// RXConfig tunes the receive path.
type RXConfig struct {
	// Name labels this NIC in telemetry output (track and capture
	// interface names); the testbed sets it to the host name. Empty means
	// "nic".
	Name string

	// Queues is the number of RX queues; each owns a private offload
	// instance (GRO or Juggler operate per receive queue).
	Queues int

	// CoalesceDelay is the interrupt-coalescing time bound τ0: a packet
	// waits at most this long in the ring before an interrupt fires. The
	// paper's testbed measures 125us.
	CoalesceDelay time.Duration

	// CoalesceFrames fires the interrupt early once this many frames wait
	// (0 = no frame bound).
	CoalesceFrames int

	// SteerToQueue0, when true, aims all flows at queue 0 regardless of
	// RSS — the paper's CPU experiments do this deliberately.
	SteerToQueue0 bool
}

// DefaultRXConfig mirrors the paper's testbed NIC: 125us coalescing with a
// 32-frame bound.
func DefaultRXConfig() RXConfig {
	return RXConfig{
		Queues:         1,
		CoalesceDelay:  125 * time.Microsecond,
		CoalesceFrames: 32,
	}
}

// RX is the receive side: RSS steering into per-queue rings, interrupt
// coalescing, NAPI polls that feed the offload layer and charge the RX
// core.
type RX struct {
	sim  *sim.Sim
	cfg  RXConfig
	cpu  *cpumodel.Model
	pool *packet.Pool

	queues []*rxQueue
	// salt perturbs the RSS hash once Rehash sets it; 0 uses the stamped
	// FlowHash.
	salt uint32

	// RxPackets counts packets accepted from the wire.
	RxPackets int64

	// tel is the run's telemetry sink; nil disables recording.
	tel     *telemetry.Sink
	rxIface int32
}

// rxQueue is one receive queue: ring, coalescing timer, offload instance.
//
// The ring is a reusable slab: Deliver appends, poll consumes by advancing
// head instead of reslicing, and the slab is rewound to its full capacity
// when a polling episode drains it — so steady-state RX never reallocates
// the ring and never copies leftovers, whatever the backlog shape.
type rxQueue struct {
	rx      *RX
	idx     int
	ring    []*packet.Packet
	head    int // ring[:head] is consumed; ring[head:] awaits polling
	offload gro.Offload

	coalesce     *sim.Timer
	polling      bool
	paused       bool
	episodeStart sim.Time
	// pollFn caches the q.poll method value so re-submitting the poll
	// from the CPU model does not allocate per poll.
	pollFn func()

	// Polls counts NAPI poll batches.
	Polls int64
	// Episodes counts polling intervals (interrupt to ring-empty), which
	// bound GRO's batching interval.
	Episodes int64

	// track is the queue's telemetry timeline; hBatch records the packets
	// drained per poll (nil when telemetry is off).
	track  int32
	hBatch *stats.QuantileSketch
}

// maxPollInterval bounds one polling episode: the kernel polls "up to a
// brief interval of time (at most 2 milliseconds)" before flushing (§3.1).
const maxPollInterval = 2 * time.Millisecond

// napiBudget caps how many packets one poll drains before yielding — the
// kernel's per-poll budget (64). It bounds the service quantum so the
// 2 ms episode limit can take effect even when the core is saturated.
const napiBudget = 64

// NewRX creates the receive engine. makeOffload constructs the per-queue
// offload (GRO, Juggler, ...); it receives the queue index.
func NewRX(s *sim.Sim, cfg RXConfig, cpu *cpumodel.Model, makeOffload func(queue int) gro.Offload) *RX {
	if cfg.Queues <= 0 {
		panic("nic: need at least one RX queue")
	}
	if cpu == nil {
		panic("nic: RX requires a CPU model")
	}
	rx := &RX{sim: s, cfg: cfg, cpu: cpu, pool: packet.PoolFromSim(s), rxIface: -1}
	name := cfg.Name
	if name == "" {
		name = "nic"
	}
	if k := telemetry.FromSim(s); k != nil {
		rx.tel = k
		rx.rxIface = k.Iface(name + "/rx")
		k.Reg().CounterOf("nic_rx_packets_total",
			"Wire packets accepted from the fabric.", "nic", name, &rx.RxPackets)
	}
	for i := 0; i < cfg.Queues; i++ {
		q := &rxQueue{rx: rx, idx: i, offload: makeOffload(i)}
		q.pollFn = q.poll
		q.coalesce = sim.NewTimer(s, func() { q.wake("timer") })
		if rx.tel != nil {
			q.track = rx.tel.Track(fmt.Sprintf("%s/rxq%d", name, i))
			q.hBatch = rx.tel.Reg().HistogramL("nic_poll_batch_pkts",
				"Packets drained per NAPI poll.", "queue", fmt.Sprintf("%s/rxq%d", name, i))
		}
		rx.queues = append(rx.queues, q)
	}
	return rx
}

// Deliver implements fabric.Sink: a packet arrives from the wire.
func (rx *RX) Deliver(p *packet.Packet) {
	rx.RxPackets++
	rx.tel.CapturePacket(rx.rxIface, true, p)
	// RSS hashes the tuple exactly once per packet; the canonical salt-0
	// hash rides on the packet so the offload flow table reuses it instead
	// of rehashing. pick reuses it too when the salt is unperturbed.
	p.FlowHash = p.Flow.Hash(0)
	packet.StampPkt(p, packet.HopNICRx, rx.sim.Now())
	q := rx.queues[rx.pick(p)]
	q.ring = append(q.ring, p)
	if q.polling || q.paused {
		// NAPI is draining (the packet will be seen by a later poll), or the
		// queue's interrupt is masked: the ring accumulates silently.
		return
	}
	if rx.cfg.CoalesceFrames > 0 && q.pending() >= rx.cfg.CoalesceFrames {
		q.wake("frames")
		return
	}
	q.coalesce.ArmIfIdle(rx.cfg.CoalesceDelay)
}

// PauseQueue masks queue i's interrupt: arriving packets accumulate on the
// ring and no polling episode starts until ResumeQueue. An in-progress NAPI
// episode keeps draining (masking the IRQ does not stop active polling),
// exactly the stall a pinned-core hiccup or IRQ-affinity change produces.
func (rx *RX) PauseQueue(i int) {
	q := rx.queues[i]
	q.paused = true
	q.coalesce.Stop()
}

// ResumeQueue unmasks queue i's interrupt; a backlogged ring fires
// immediately.
func (rx *RX) ResumeQueue(i int) {
	q := rx.queues[i]
	if !q.paused {
		return
	}
	q.paused = false
	if q.pending() > 0 {
		q.wake("resume")
	}
}

// Rehash replaces the RSS salt mid-flow, the way a driver reprogramming the
// indirection table rebalances queues: subsequent packets of a flow may land
// on a different queue than its earlier packets, whose offload state stays
// behind on the old queue.
func (rx *RX) Rehash(salt uint32) { rx.salt = salt }

// pick selects the RX queue for a packet.
func (rx *RX) pick(p *packet.Packet) int {
	if rx.cfg.SteerToQueue0 || len(rx.queues) == 1 {
		return 0
	}
	if rx.salt == 0 {
		// Hash(0) is the stamped FlowHash: no second hash pass.
		return int(p.FlowHash) % len(rx.queues)
	}
	return int(p.Flow.Hash(rx.salt)) % len(rx.queues)
}

// Queue returns queue i (stats, offload access).
func (rx *RX) Queue(i int) RXQueueInfo {
	q := rx.queues[i]
	return RXQueueInfo{Offload: q.offload, Polls: q.Polls, Episodes: q.Episodes}
}

// NumQueues returns the configured queue count.
func (rx *RX) NumQueues() int { return len(rx.queues) }

// Offload returns queue i's offload instance.
func (rx *RX) Offload(i int) gro.Offload { return rx.queues[i].offload }

// RXQueueInfo is a read-only view of one queue's statistics.
type RXQueueInfo struct {
	Offload  gro.Offload
	Polls    int64
	Episodes int64
}

// wake is the interrupt: it switches the queue into polling mode and the
// kernel then polls until it empties the queue (or hits the 2 ms bound).
// The cause — coalescing "timer", "frames" bound, or IRQ "resume" — is
// recorded on the queue's telemetry track.
func (q *rxQueue) wake(cause string) {
	if q.polling || q.paused {
		return
	}
	q.rx.tel.Record(&telemetry.Record{Layer: telemetry.LayerNIC, Op: telemetry.OpCoalesce,
		Track: q.track, N: int64(q.pending()), Note: cause})
	q.polling = true
	q.episodeStart = q.rx.sim.Now()
	q.coalesce.Stop()
	q.poll()
}

// pending counts packets delivered to the ring but not yet polled.
func (q *rxQueue) pending() int { return len(q.ring) - q.head }

// poll drains whatever is on the ring as one batch: packets go through the
// offload layer and the batch's CPU cost is charged to the RX core, whose
// service time paces the next drain — so a busy core naturally sees larger
// (more efficient) batches. The polling interval ends — and the offload
// layer flushes (PollComplete) — when the ring is found empty or the 2 ms
// bound is hit, exactly like NAPI's napi_complete path.
func (q *rxQueue) poll() {
	now := q.rx.sim.Now()
	if q.pending() == 0 || now.Sub(q.episodeStart) >= maxPollInterval {
		// End of the polling interval: the offload layer flushes; leave
		// polling mode unless the 2 ms bound cut a busy episode short.
		q.Episodes++
		q.offload.PollComplete()
		if q.pending() == 0 {
			q.polling = false
			// Rewind the slab: the consumed prefix is dead, so the next
			// episode reuses the full capacity from index zero.
			q.ring = q.ring[:0]
			q.head = 0
			return
		}
		q.episodeStart = now
	}
	batch := q.ring[q.head:]
	if len(batch) > napiBudget {
		batch = batch[:napiBudget]
	}
	q.head += len(batch)
	q.Polls++
	q.hBatch.Observe(int64(len(batch)))
	q.rx.tel.Record(&telemetry.Record{Layer: telemetry.LayerNIC, Op: telemetry.OpPoll,
		Track: q.track, N: int64(len(batch))})

	// Hop stamps for forensics: the poll drain and the offload handoff
	// happen at the same virtual instant (Receive runs synchronously in
	// the softirq, like the kernel's napi_gro_receive), so both hops are
	// stamped here and the poll->gro-buffer sojourn is zero by
	// construction — what varies is nic-rx -> napi-poll (coalescing) and
	// gro-buffer -> deliver (the offload hold).
	for _, p := range batch {
		packet.StampPkt(p, packet.HopNAPIPoll, now)
		packet.StampPkt(p, packet.HopGROBuffer, now)
	}
	before := q.offload.Counters()
	q.offload.ReceiveBatch(batch)
	// The offload layer copies what it keeps into Segments and never
	// retains the *Packet (nor the batch slice), so the wire objects can
	// be recycled here — the single Put matching the Get in SendTSO / the
	// ACK generator — and the consumed slots' references dropped so the
	// slab does not pin recycled packets until its next rewind.
	for i, p := range batch {
		q.rx.pool.Put(p)
		batch[i] = nil
	}
	after := q.offload.Counters()

	cost := q.rx.cpu.RXPollCost(
		len(batch),
		int(after.OOOWork-before.OOOWork),
		int(after.Segments-before.Segments),
	)
	if cost <= 0 {
		cost = time.Nanosecond
	}
	// Each RSS queue's IRQ is pinned to its own core. pollFn is the
	// method value cached at construction: minting `q.poll` here would
	// allocate a closure on every poll of the steady-state hot path.
	q.rx.cpu.RXCore(q.idx).Submit(cost, q.pollFn)
}
