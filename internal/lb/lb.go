// Package lb implements the load-balancing policies compared in §5.3.2 of
// the paper (Figure 20): per-flow ECMP, per-packet spraying and per-TSO
// (Presto-style flowcell) balancing.
//
// All policies implement fabric.Picker: given a packet and the number of
// equivalent uplinks, return the chosen index. Policies must be
// deterministic given the simulation RNG so runs are reproducible.
package lb

import (
	"math/rand"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// ECMP hashes the five-tuple so every packet of a flow takes the same
// path — today's default, and the baseline that suffers hash collisions.
type ECMP struct {
	// Salt perturbs the hash (distinct switches should use distinct salts
	// so collisions are independent per hop).
	Salt uint32
}

// Pick implements fabric.Picker.
func (e *ECMP) Pick(p *packet.Packet, n int) int {
	return int(p.Flow.Hash(e.Salt) % uint32(n))
}

// PerPacket sprays every packet independently — the finest-grained policy,
// which Juggler makes safe. Mode selects round-robin (default) or uniform
// random spraying.
type PerPacket struct {
	// Random, when true, picks uniformly at random from rng instead of
	// round-robin.
	Random bool

	rng *rand.Rand
	rr  uint64
}

// NewPerPacket creates a per-packet sprayer using the simulation's RNG for
// the random mode.
func NewPerPacket(s *sim.Sim, random bool) *PerPacket {
	return &PerPacket{Random: random, rng: s.Rand()}
}

// Pick implements fabric.Picker.
func (pp *PerPacket) Pick(p *packet.Packet, n int) int {
	if pp.Random {
		return pp.rng.Intn(n)
	}
	pp.rr++
	return int(pp.rr % uint64(n))
}

// PerTSO pins all packets of one TSO super-segment ("flowcell" in Presto's
// terminology) to one path: finer than ECMP, coarser than per-packet. The
// sender stamps each packet's TSOID; the hash combines it with the flow so
// consecutive TSO bursts of the same flow take (pseudo)random paths.
type PerTSO struct {
	Salt uint32
}

// Pick implements fabric.Picker.
func (pt *PerTSO) Pick(p *packet.Packet, n int) int {
	h := p.Flow.Hash(pt.Salt)
	// Mix the TSO id (SplitMix64 finalizer) so successive bursts decorrelate.
	z := p.TSOID + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int((uint64(h) ^ z) % uint64(n))
}

// Policy names selectable from CLIs and experiment tables.
const (
	PolicyECMP      = "ecmp"
	PolicyPerPacket = "perpacket"
	PolicyPerTSO    = "pertso"
)

// New constructs a picker by policy name — the one name → picker map
// behind every Clos the tree builds. Per-packet spraying is uniform
// random (round-robin spraying is for tests). Unknown names return nil.
func New(s *sim.Sim, name string) interface {
	Pick(p *packet.Packet, n int) int
} {
	switch name {
	case PolicyECMP:
		return &ECMP{}
	case PolicyPerPacket:
		return NewPerPacket(s, true)
	case PolicyPerTSO:
		return &PerTSO{}
	}
	return nil
}
