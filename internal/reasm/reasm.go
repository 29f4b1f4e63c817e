// Package reasm holds one flow's out-of-order queue for the Juggler
// receive path. The paper's gro_table keeps each flow's out-of-order
// packets in one sorted list and eagerly merges contiguous runs into
// segments (§4.1). SegList is that list, and internal/core holds one per
// flow.
//
// SegList mints merged segments from the simulation's shared
// packet.SegPool and never recycles what it hands out: segment ownership
// transfers to the caller at PopHead/Drain (and at Insert time for
// duplicate packets, which the caller delivers unbuffered), so
// testbed.Host remains the single recycle point.
package reasm

import "juggler/internal/packet"

// InsertResult describes what SegList.Insert did with a packet.
type InsertResult uint8

const (
	// InsMerged extended an existing queued segment.
	InsMerged InsertResult = iota
	// InsNew stored a new standalone segment.
	InsNew
	// InsDuplicate means the packet's bytes are already fully present;
	// nothing was stored and the caller delivers the packet immediately.
	InsDuplicate
)

// Kind names a reassembly representation; bench/ladder.go is its only reason to exist.
type Kind uint8

// KindSegList is the only Kind: the paper's sorted, eagerly merged list.
const KindSegList Kind = 0

// Backend is the part of SegList that bench/ladder.go drives; that file is its only reason to exist.
type Backend interface {
	Insert(p *packet.Packet) (res InsertResult, fastPath bool)
	Head() *packet.Segment
	PopHead() *packet.Segment
}

// New returns an empty SegList minting merged segments from pool (nil-safe:
// a nil pool heap-allocates). k must be KindSegList; bench/ladder.go is the only reason it takes one.
func New(k Kind, pool *packet.SegPool) *SegList {
	if k != KindSegList {
		panic("reasm: unknown kind")
	}
	return new(SegList).Init(pool, nil)
}
