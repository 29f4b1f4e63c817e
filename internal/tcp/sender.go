// Package tcp implements the simplified-but-faithful TCP substrate the
// experiments run on: a Reno-style sender (slow start, AIMD, three-dupACK
// fast retransmit and recovery, retransmission timeout, optional ECN
// reaction and pacing) and a receiver (cumulative ACKs, one ACK per
// delivered segment, out-of-order reassembly).
//
// The substrate deliberately models exactly the TCP behaviours the paper's
// evaluation depends on: duplicate-ACK loss inference (which reordering
// falsely triggers), ACK-per-segment amplification (15x more ACKs when GRO
// batching collapses, §5.1.1), and window-driven throughput.
package tcp

import (
	"time"

	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry"
	"juggler/internal/units"
)

// PacketSender is the NIC-facing transmit interface (satisfied by nic.TX).
type PacketSender interface {
	SendTSO(tmpl packet.Packet, seq uint32, payloadLen int)
	SendRaw(p *packet.Packet)
}

// SenderConfig tunes a TCP sender. Zero fields take defaults from
// DefaultSenderConfig.
type SenderConfig struct {
	// MaxCwnd caps the window (stands in for the receive window; default
	// 4 MB).
	MaxCwnd int
	// RTOMin floors the retransmission timeout (default 5 ms — a
	// datacenter-tuned stack; Linux defaults to 200 ms).
	RTOMin time.Duration
	// PaceRate, when non-zero, caps the flow's send rate.
	PaceRate units.BitRate
	// ECN enables DCTCP-style window reduction on ECN-Echo feedback: the
	// sender tracks the fraction of marked bytes per window (EWMA alpha)
	// and cuts cwnd by alpha/2 once per RTT — gentle under low marking,
	// halving under persistent congestion.
	ECN bool
	// DisableTLP turns off the tail-loss-probe timer (RFC 8985 style:
	// after ~2 SRTT without progress, the last unacked segment is
	// retransmitted once so short transfers do not wait out a full RTO).
	DisableTLP bool
	// FixedWindow pins the congestion window at MaxCwnd: loss recovery
	// still retransmits, but there is no multiplicative decrease.
	// Experiments use it to isolate recovery latency from congestion
	// control (emulating a loss-tolerant congestion controller).
	FixedWindow bool
}

// DefaultSenderConfig returns the default tuning.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		MaxCwnd: 4 * units.MB,
		RTOMin:  5 * time.Millisecond,
	}
}

const (
	// initCwnd is the initial congestion window in bytes.
	initCwnd = 10 * units.MSS
	// dupAckThresh is the duplicate-ACK count that triggers fast
	// retransmit.
	dupAckThresh = 3
)

// SenderStats are cumulative sender-side counters.
type SenderStats struct {
	BytesAcked      int64
	AcksIn          int64
	DupAcks         int64
	FastRetransmits int64
	Timeouts        int64
	TLPProbes       int64
	RetransPackets  int64
	TSOBursts       int64
	ECNReductions   int64
}

// Sender is one TCP flow's transmit side.
type Sender struct {
	sim  *sim.Sim
	cfg  SenderConfig
	flow packet.FiveTuple
	out  PacketSender

	iss     uint32
	sndUna  uint32
	sndNxt  uint32
	sndLim  uint32 // iss + bytes written by the application
	msgEnds []uint32

	// infinite marks a bulk source that never runs out of data.
	infinite bool

	cwnd     float64
	ssthresh float64
	inRecov  bool
	recover  uint32
	dupacks  int

	srtt, rttvar time.Duration
	timedSeq     uint32
	timedAt      sim.Time
	timedValid   bool
	rtoBackoff   int
	rto          *sim.Timer

	pace       *sim.Timer
	nextSendAt sim.Time

	// tlp is the tail-loss-probe timer; tlpSpent marks that the current
	// flight already used its one probe.
	tlp      *sim.Timer
	tlpSpent bool

	ecnCwndSeq   uint32 // window boundary for the DCTCP alpha update
	dctcpAlpha   float64
	windowAcked  int64
	windowMarked int64
	lastRetrans  uint32

	// sackStart/sackEnd mirror the most recent SACK block from the
	// receiver; holes below sackStart are retransmitted in bulk.
	sackStart, sackEnd uint32

	// Mark, when non-nil, selects the priority for each TSO burst (the
	// bandwidth-guarantee sender module plugs in here).
	Mark func() packet.Priority

	// OnAckedBytes, when non-nil, observes every cumulative-ACK advance
	// (rate measurement for the guarantee controller).
	OnAckedBytes func(n int)

	Stats SenderStats

	// tel is the run's telemetry sink; nil disables recording.
	tel *telemetry.Sink
}

// NewSender creates a sender for flow, transmitting through out.
func NewSender(s *sim.Sim, cfg SenderConfig, flow packet.FiveTuple, out PacketSender) *Sender {
	def := DefaultSenderConfig()
	if cfg.MaxCwnd <= 0 {
		cfg.MaxCwnd = def.MaxCwnd
	}
	if cfg.RTOMin <= 0 {
		cfg.RTOMin = def.RTOMin
	}
	snd := &Sender{
		sim:      s,
		cfg:      cfg,
		flow:     flow,
		out:      out,
		iss:      1,
		sndUna:   1,
		sndNxt:   1,
		sndLim:   1,
		cwnd:     initCwnd,
		ssthresh: float64(cfg.MaxCwnd),
		// DCTCP initializes alpha to 1 so the first marked window reacts
		// strongly; it decays as windows pass unmarked.
		dctcpAlpha: 1,
	}
	snd.rto = sim.NewTimer(s, snd.onRTO)
	snd.pace = sim.NewTimer(s, snd.MaybeSend)
	snd.tlp = sim.NewTimer(s, snd.onTLP)
	if k := telemetry.FromSim(s); k != nil {
		snd.tel = k
		r := k.Reg()
		r.CounterOf("tcp_fast_retransmits_total", "Fast-retransmit recoveries entered.", "", "", &snd.Stats.FastRetransmits)
		r.CounterOf("tcp_timeouts_total", "Retransmission timeouts fired.", "", "", &snd.Stats.Timeouts)
		r.CounterOf("tcp_tlp_probes_total", "Tail-loss probes sent.", "", "", &snd.Stats.TLPProbes)
		r.CounterOf("tcp_retrans_packets_total", "Packets retransmitted.", "", "", &snd.Stats.RetransPackets)
		r.CounterOf("tcp_ecn_reductions_total", "DCTCP window reductions.", "", "", &snd.Stats.ECNReductions)
	}
	return snd
}

// Flow returns the data-direction five-tuple.
func (s *Sender) Flow() packet.FiveTuple { return s.flow }

// AckFlow returns the tuple on which this sender expects ACKs.
func (s *Sender) AckFlow() packet.FiveTuple { return s.flow.Reverse() }

// SetInfinite switches the sender to an endless bulk source.
func (s *Sender) SetInfinite() { s.infinite = true }

// Write appends n application bytes; endOfMessage marks an RPC boundary
// (the last packet of the message carries PSH). It triggers transmission.
func (s *Sender) Write(n int, endOfMessage bool) {
	if n <= 0 {
		panic("tcp: non-positive write")
	}
	s.sndLim += uint32(n)
	if endOfMessage {
		s.msgEnds = append(s.msgEnds, s.sndLim)
	}
	s.MaybeSend()
}

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() int { return int(s.cwnd) }

// Done reports whether every written byte has been acknowledged.
func (s *Sender) Done() bool { return !s.infinite && s.sndUna == s.sndLim }

// Offset translates an absolute sequence number into a byte offset from
// the start of the stream.
func (s *Sender) Offset(seq uint32) int64 { return int64(seq - s.iss) }

// StreamEnd returns the byte offset just past everything written so far.
func (s *Sender) StreamEnd() int64 { return int64(s.sndLim - s.iss) }

// RemainingToSend returns the written-but-unsent byte count — the "remaining
// size" signal SRPT-style dynamic prioritization keys on (§2.1: pFabric
// raises a flow's priority as it nears completion).
func (s *Sender) RemainingToSend() int64 { return int64(s.sndLim - s.sndNxt) }

// available returns how many new bytes may be cut into the next burst.
func (s *Sender) available() int {
	if s.infinite {
		return units.TSOMaxBytes
	}
	return int(s.sndLim - s.sndNxt)
}

// MaybeSend transmits as much as window, data, and pacing allow.
func (s *Sender) MaybeSend() {
	for {
		if s.cfg.PaceRate > 0 {
			now := s.sim.Now()
			if now < s.nextSendAt {
				if !s.pace.Pending() {
					s.pace.ResetAt(s.nextSendAt)
				}
				return
			}
		}
		wnd := int(s.sndUna) + int(s.cwnd) - int(s.sndNxt)
		n := s.available()
		if wnd < n {
			n = wnd
		}
		if n > units.TSOMaxBytes {
			n = units.TSOMaxBytes
		}
		if n <= 0 {
			return
		}
		psh := false
		// Cut the burst at the next message boundary so PSH lands on the
		// real message end.
		for _, end := range s.msgEnds {
			if packet.SeqLess(s.sndNxt, end) {
				if int(end-s.sndNxt) <= n {
					n = int(end - s.sndNxt)
					psh = true
				}
				break
			}
		}
		s.sendBurst(s.sndNxt, n, psh, false)
		s.sndNxt += uint32(n)
		if !s.timedValid {
			s.timedSeq = s.sndNxt
			s.timedAt = s.sim.Now()
			s.timedValid = true
		}
		if !s.rto.Pending() {
			s.rto.Reset(s.rtoInterval())
		}
		s.armTLP()
		if s.cfg.PaceRate > 0 {
			now := s.sim.Now()
			base := s.nextSendAt
			if base < now {
				base = now
			}
			s.nextSendAt = base.Add(units.TxTimeNoOverhead(int64(n), s.cfg.PaceRate))
		}
	}
}

// sendBurst emits one TSO burst.
func (s *Sender) sendBurst(seq uint32, n int, psh, retrans bool) {
	// The options signature is constant per flow; the source port makes
	// it differ across a host's connections.
	tmpl := packet.Packet{
		Flow:   s.flow,
		Flags:  packet.FlagACK,
		OptSig: uint32(s.flow.SrcPort),
	}
	packet.Stamp(&tmpl.Stamps, packet.HopTCPSend, s.sim.Now())
	if psh {
		tmpl.Flags |= packet.FlagPSH
	}
	if s.Mark != nil {
		tmpl.Priority = s.Mark()
	} else {
		tmpl.Priority = packet.PrioLow
	}
	s.Stats.TSOBursts++
	if retrans {
		s.Stats.RetransPackets += int64((n + units.MSS - 1) / units.MSS)
		s.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpRetransmit,
			Flow: s.flow, Seq: seq, N: int64(n)})
	}
	s.out.SendTSO(tmpl, seq, n)
}

// OnAck processes an incoming (possibly GRO-merged) ACK segment.
func (s *Sender) OnAck(seg *packet.Segment) {
	s.Stats.AcksIn++
	ack := seg.AckSeq
	ece := seg.Flags.Has(packet.FlagECE)
	if seg.SACKStart != seg.SACKEnd && packet.SeqLess(ack, seg.SACKStart) {
		s.sackStart, s.sackEnd = seg.SACKStart, seg.SACKEnd
	}

	if packet.SeqLess(s.sndUna, ack) && packet.SeqLEQ(ack, s.sndNxt) {
		acked := int(ack - s.sndUna)
		s.sndUna = ack
		s.Stats.BytesAcked += int64(acked)
		if s.OnAckedBytes != nil {
			s.OnAckedBytes(acked)
		}
		s.dupacks = 0
		s.rtoBackoff = 0

		// RTT sample (Karn's rule: only untimed by retransmission).
		if s.timedValid && packet.SeqLEQ(s.timedSeq, ack) {
			s.sampleRTT(s.sim.Now().Sub(s.timedAt))
			s.timedValid = false
		}

		if s.inRecov {
			if packet.SeqLEQ(s.recover, ack) {
				// Full recovery: deflate.
				s.inRecov = false
				s.cwnd = s.ssthresh
				s.clampCwnd()
				s.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpCwnd,
					Flow: s.flow, Seq: ack, N: int64(s.cwnd), Note: "recovery-exit"})
			} else {
				// Partial ACK (NewReno): retransmit the next hole.
				s.retransmitHead()
			}
		} else {
			if s.cwnd < s.ssthresh {
				s.cwnd += float64(acked) // slow start
			} else {
				s.cwnd += float64(units.MSS) * float64(acked) / s.cwnd
			}
		}
		if s.cfg.ECN {
			s.dctcpUpdate(acked, ece, ack)
		}
		s.clampCwnd()

		s.tlpSpent = false
		if s.sndUna == s.sndNxt {
			s.rto.Stop()
			s.tlp.Stop()
		} else {
			s.rto.Reset(s.rtoInterval())
			s.armTLP()
		}
		s.MaybeSend()
		return
	}

	// Duplicate ACK (no new data acknowledged, flight outstanding).
	if ack == s.sndUna && s.sndNxt != s.sndUna {
		s.Stats.DupAcks++
		s.dupacks++
		thresh := dupAckThresh
		// RFC 5827 early retransmit: with fewer than four segments
		// outstanding, waiting for three dupACKs would wait forever —
		// lower the threshold.
		if oseg := (int(s.sndNxt-s.sndUna) + units.MSS - 1) / units.MSS; oseg < 4 {
			if t := oseg - 1; t >= 1 && t < thresh {
				thresh = t
			}
		}
		// FACK-style trigger: segment merging at the receiver's offload
		// layer can collapse many out-of-order packets into one segment —
		// and therefore one duplicate ACK — so raw dupACK counting stalls.
		// When the SACK block shows more than three segments' worth of
		// data above the hole, the loss inference is at least as strong
		// as three dupACKs.
		// Requiring a second dupACK alongside the SACK evidence filters the
		// one-off out-of-order deliveries a reordering-resilient receiver
		// still produces at flow start (Remark 1's residual cost), while a
		// genuine loss always accrues a second dupACK from the tail-loss
		// probe if nothing else.
		fack := s.dupacks >= 2 && s.sackStart != s.sackEnd &&
			packet.SeqLess(s.sndUna, s.sackEnd) &&
			int(s.sackEnd-s.sndUna) > 3*units.MSS
		if !s.inRecov && (s.dupacks >= thresh || fack) {
			// Fast retransmit + fast recovery.
			s.Stats.FastRetransmits++
			s.inRecov = true
			s.recover = s.sndNxt
			s.ssthresh = s.halfFlight()
			s.cwnd = s.ssthresh + dupAckThresh*units.MSS
			s.clampCwnd()
			s.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpCwnd,
				Flow: s.flow, Seq: s.sndUna, N: int64(s.cwnd), Note: "fast-recovery"})
			s.retransmitHead()
		} else if s.inRecov {
			s.cwnd += float64(units.MSS) // window inflation
			s.clampCwnd()
			s.MaybeSend()
		}
	}
}

// retransmitHead resends the hole at the left window edge: one MSS by
// default, or — when the receiver's SACK block shows a contiguous hole run
// below already-received data — the whole run up to one TSO burst, the way
// a SACK-based kernel recovers many losses per round trip.
func (s *Sender) retransmitHead() {
	n := int(s.sndNxt - s.sndUna)
	if n > units.MSS {
		n = units.MSS
	}
	if s.sackStart != s.sackEnd && packet.SeqLess(s.sndUna, s.sackStart) {
		run := int(s.sackStart - s.sndUna)
		if run > units.TSOMaxBytes {
			run = units.TSOMaxBytes
		}
		if run > n && run <= int(s.sndNxt-s.sndUna) {
			n = run
		}
	}
	if n <= 0 {
		return
	}
	psh := false
	for _, end := range s.msgEnds {
		if end == s.sndUna+uint32(n) {
			psh = true
			break
		}
	}
	s.timedValid = false // Karn: do not time retransmitted data
	s.lastRetrans = s.sndUna
	s.sendBurst(s.sndUna, n, psh, true)
	s.rto.Reset(s.rtoInterval())
}

// onRTO fires on retransmission timeout. Besides the classic collapse to
// one MSS, the sender enters recovery mode up to the current sndNxt so
// that every subsequent partial ACK keeps retransmitting the next hole —
// without this, a loss burst with many scattered holes would be repaired
// one hole per timeout.
func (s *Sender) onRTO() {
	if s.sndUna == s.sndNxt {
		return
	}
	s.Stats.Timeouts++
	s.tlp.Stop()
	s.ssthresh = s.halfFlight()
	s.cwnd = float64(units.MSS)
	s.clampCwnd()
	s.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpTimeout,
		Flow: s.flow, Seq: s.sndUna, N: int64(s.cwnd), Note: "rto"})
	s.inRecov = true
	s.recover = s.sndNxt
	s.dupacks = 0
	if s.rtoBackoff < 6 {
		s.rtoBackoff++
	}
	s.retransmitHead()
}

// armTLP (re)arms the tail-loss probe ~2 SRTT out, once per flight.
func (s *Sender) armTLP() {
	if s.cfg.DisableTLP || s.tlpSpent || s.sndUna == s.sndNxt {
		return
	}
	pto := 2 * s.srtt
	if min := 2 * time.Millisecond; pto < min {
		pto = min
	}
	if rto := s.rtoInterval(); pto > rto {
		pto = rto / 2
	}
	s.tlp.Reset(pto)
}

// onTLP fires the tail loss probe: retransmit the last MSS of the flight
// so a tail drop draws an ACK (or SACK feedback) instead of waiting out
// the full RTO. One probe per flight; congestion state is untouched.
func (s *Sender) onTLP() {
	if s.sndUna == s.sndNxt || s.tlpSpent {
		return
	}
	s.tlpSpent = true
	s.Stats.TLPProbes++
	n := int(s.sndNxt - s.sndUna)
	if n > units.MSS {
		n = units.MSS
	}
	seq := s.sndNxt - uint32(n)
	psh := false
	for _, end := range s.msgEnds {
		if end == s.sndNxt {
			psh = true
			break
		}
	}
	s.timedValid = false
	s.sendBurst(seq, n, psh, true)
	if !s.rto.Pending() {
		s.rto.Reset(s.rtoInterval())
	}
}

// dctcpUpdate accumulates marked/acked bytes and, once per window of data,
// updates the DCTCP running marking fraction alpha and cuts the window by
// alpha/2 if the window saw any marks (Alizadeh et al., SIGCOMM'10).
func (s *Sender) dctcpUpdate(acked int, ece bool, ack uint32) {
	s.windowAcked += int64(acked)
	if ece {
		s.windowMarked += int64(acked)
	}
	if s.ecnCwndSeq != 0 && packet.SeqLess(ack, s.ecnCwndSeq) {
		return // window still in flight
	}
	if s.windowAcked > 0 {
		const g = 1.0 / 16
		frac := float64(s.windowMarked) / float64(s.windowAcked)
		s.dctcpAlpha = (1-g)*s.dctcpAlpha + g*frac
		if s.windowMarked > 0 {
			s.Stats.ECNReductions++
			s.cwnd *= 1 - s.dctcpAlpha/2
			s.ssthresh = s.cwnd
			s.clampCwnd()
			s.tel.Record(&telemetry.Record{Layer: telemetry.LayerTCP, Op: telemetry.OpCwnd,
				Flow: s.flow, Seq: ack, N: int64(s.cwnd), Note: "ecn"})
		}
	}
	s.windowAcked, s.windowMarked = 0, 0
	s.ecnCwndSeq = s.sndNxt
}

func (s *Sender) halfFlight() float64 {
	half := float64(s.sndNxt-s.sndUna) / 2
	if min := float64(2 * units.MSS); half < min {
		half = min
	}
	return half
}

func (s *Sender) clampCwnd() {
	if s.cfg.FixedWindow {
		s.cwnd = float64(s.cfg.MaxCwnd)
		return
	}
	if s.cwnd > float64(s.cfg.MaxCwnd) {
		s.cwnd = float64(s.cfg.MaxCwnd)
	}
	if s.cwnd < float64(units.MSS) {
		s.cwnd = float64(units.MSS)
	}
}

// sampleRTT updates SRTT/RTTVAR (RFC 6298).
func (s *Sender) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
		return
	}
	d := s.srtt - rtt
	if d < 0 {
		d = -d
	}
	s.rttvar = (3*s.rttvar + d) / 4
	s.srtt = (7*s.srtt + rtt) / 8
}

// rtoInterval returns the current timeout with exponential backoff. Before
// the first RTT sample the timeout is deliberately conservative (RFC 6298
// starts at 1s; scaled here to 10x the floor) so connection start-up over
// a high-delay path cannot fire a spurious timeout that craters ssthresh.
func (s *Sender) rtoInterval() time.Duration {
	if s.srtt == 0 {
		return (10 * s.cfg.RTOMin) << s.rtoBackoff
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.cfg.RTOMin {
		rto = s.cfg.RTOMin
	}
	return rto << s.rtoBackoff
}

// DbgNxt returns snd_nxt, the next sequence number to send.
func (s *Sender) DbgNxt() uint32 { return s.sndNxt }
