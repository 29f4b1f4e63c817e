// Package juggler is a reordering-resilient datacenter network stack,
// reproducing "Juggler: a practical reordering resilient network stack for
// datacenters" (Geng, Jeyakumar, Kabbani, Alizadeh — EuroSys 2016) as a
// deterministic discrete-event simulation.
//
// The original Juggler is a Linux GRO-layer patch: it buffers out-of-order
// packets for a small number of active flows over short timescales and
// delivers them in order, best effort, so that any packet may take any
// path at any priority. This module rebuilds the entire surrounding system
// in Go — NICs with RSS/TSO/interrupt coalescing, a Clos fabric with
// priority queues and load balancers, a TCP substrate, a calibrated CPU
// cost model — and layers the Juggler algorithm (internal/core) on top.
//
// Three entry points:
//
//   - ReorderPair: the paper's NetFPGA two-host apparatus with precisely
//     controlled reordering (Figure 11) — ideal for studying the Juggler
//     algorithm itself;
//   - Cluster: a two-stage Clos with hosts, load-balancing policies, and
//     background load (Figures 17/19) — for system-level scenarios such as
//     per-packet load balancing and dynamic-priority bandwidth guarantees;
//   - RunExperiment: regenerates any table/figure of the paper's
//     evaluation by ID (see Experiments).
//
// Everything is stdlib-only and deterministic: the same seed reproduces a
// run bit for bit.
package juggler

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// Rate is a link or flow bit rate in bits per second.
type Rate int64

// Common datacenter rates.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9

	// Rate10G and Rate40G are the NIC speeds the paper evaluates.
	Rate10G = 10 * Gbps
	Rate40G = 40 * Gbps
)

// String formats the rate.
func (r Rate) String() string { return units.BitRate(r).String() }

// Stack selects the receive-offload implementation at a host.
type Stack int

// The stacks compared throughout the paper.
const (
	// StackVanilla is today's Linux GRO: batching breaks and TCP
	// misbehaves under reordering.
	StackVanilla Stack = iota
	// StackJuggler is the paper's reordering-resilient GRO.
	StackJuggler
	// StackLinkedList batches out-of-order packets in a linked list
	// (§3.1 strawman; ~50% more CPU).
	StackLinkedList
	// StackNone disables receive offload entirely.
	StackNone
)

// String names the stack.
func (k Stack) String() string { return k.kind().String() }

func (k Stack) kind() testbed.OffloadKind {
	switch k {
	case StackVanilla:
		return testbed.OffloadVanilla
	case StackJuggler:
		return testbed.OffloadJuggler
	case StackLinkedList:
		return testbed.OffloadLinkedList
	case StackNone:
		return testbed.OffloadNone
	}
	panic("juggler: unknown stack")
}

// Tuning holds Juggler's two global knobs plus the flow-table bound (§4.1,
// §5.2.1).
type Tuning struct {
	// InseqTimeout bounds how long in-sequence packets are held for
	// batching. Rule of thumb: the time to receive one 64KB batch at line
	// rate (52us at 10G, 13us at 40G).
	InseqTimeout time.Duration
	// OfoTimeout bounds how long to wait for a missing packet: set it to
	// the expected maximum delay difference across paths.
	OfoTimeout time.Duration
	// MaxFlows bounds the per-RX-queue flow table (8 suffices for
	// per-packet load balancing; 64 covers ~1ms of reordering).
	MaxFlows int
	// Adapt enables the online reordering detector and self-tuning
	// controller (internal/adapt): InseqTimeout/OfoTimeout become the
	// starting point instead of fixed values, and the controller drives
	// them from live skew estimates. Only meaningful for StackJuggler.
	Adapt bool
}

// DefaultTuning returns the paper's recommended tuning for a line rate:
// inseq_timeout sized to one 64KB batch, ofo_timeout 50us, 64-entry table.
func DefaultTuning(lineRate Rate) Tuning {
	inseq := time.Duration(int64(units.TSOMaxBytes*8) * int64(time.Second) / int64(lineRate))
	return Tuning{
		InseqTimeout: inseq,
		OfoTimeout:   50 * time.Microsecond,
		MaxFlows:     64,
	}
}

// coreConfig converts the public tuning into the internal configuration.
func (t Tuning) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if t.InseqTimeout > 0 {
		cfg.InseqTimeout = t.InseqTimeout
	}
	if t.OfoTimeout > 0 {
		cfg.OfoTimeout = t.OfoTimeout
	}
	if t.MaxFlows > 0 {
		cfg.MaxFlows = t.MaxFlows
	}
	return cfg
}

// LoadBalancing selects how a Cluster's ToR uplinks spread traffic.
type LoadBalancing int

// The load-balancing policies of §5.3.2.
const (
	// ECMP hashes each flow to one path (today's default).
	ECMP LoadBalancing = iota
	// PerPacket sprays every packet independently — safe only with a
	// reordering-resilient stack.
	PerPacket
	// PerTSO pins each 64KB TSO burst to a path (Presto-like flowcells).
	PerTSO
)

// String names the policy.
func (p LoadBalancing) String() string {
	switch p {
	case ECMP:
		return "ecmp"
	case PerPacket:
		return "perpacket"
	case PerTSO:
		return "pertso"
	}
	return "?"
}

// HostStats summarizes a host's receive path after a run.
type HostStats struct {
	// RXCoreUtil / AppCoreUtil are core utilizations over the last
	// measurement window (1.0 = fully busy).
	RXCoreUtil, AppCoreUtil float64
	// BatchingMTUs is the mean packets per segment flushed by the offload
	// layer (the Figure 12 metric).
	BatchingMTUs float64
	// SegmentsIn / OOOSegments / AcksSent are receive-side TCP counters
	// summed over the host's connections.
	SegmentsIn, OOOSegments, AcksSent int64
	// ActiveFlows is the current Juggler active-list length (0 for other
	// stacks).
	ActiveFlows int
	// DroppedSegments counts socket-backlog overflow drops.
	DroppedSegments int64
}

// hostStats summarizes h's receive path; the TCP counters are left for
// the caller, which knows the host's connections.
func hostStats(h *testbed.Host) HostStats {
	st := HostStats{
		RXCoreUtil:      h.CPU.RX.Utilization(),
		AppCoreUtil:     h.CPU.App.Utilization(),
		ActiveFlows:     h.JugglerActiveLen(),
		DroppedSegments: h.DroppedSegs,
	}
	if c := h.OffloadCounters(); c.Segments > 0 {
		st.BatchingMTUs = float64(c.Packets) / float64(c.Segments)
	}
	return st
}
