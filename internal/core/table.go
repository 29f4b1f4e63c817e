package core

import "juggler/internal/packet"

// flowRef names an entry of the flow slab: its index plus one, so the zero
// value, noFlow, means "no flow" and a zeroed slot, list or link is empty.
// Table slots, list links and the free list all hold refs.
type flowRef int32

const noFlow flowRef = 0

// flowTable is the gro_table: a fixed slab of flow entries and an
// open-addressing index over it, keyed by the five-tuple hash the NIC RSS
// stage already computed (packet.FlowHash), with linear probing and
// backward-shift deletion. The index replaces the Go map so the per-packet
// lookup neither rehashes the 13-byte tuple nor touches map runtime
// machinery, and so the structure has no hidden iteration order — every
// traversal of tracked flows goes over the deterministic phase lists
// instead.
//
// Capacity is fixed at construction: the slab holds exactly MaxFlows
// entries, MaxFlows bounds occupancy (eviction runs before any insert
// beyond it), and the slot array is sized to at least twice that, so the
// load factor never exceeds 1/2 and probe sequences stay short without
// ever resizing. Neither array ever grows, so pointers into the slab stay
// valid for the Juggler's lifetime.
//
// Each slot carries the occupant's hash next to its ref: at 100k flows the
// entries themselves are cold, and filtering probe mismatches on the
// in-slot hash keeps collision chains from touching them at all.
type flowSlot struct {
	hash uint32
	ref  flowRef
}

type flowTable struct {
	slots []flowSlot
	flows []flowEntry
	mask  uint32
	n     int
}

// newFlowTable indexes the slab flows, sized for len(flows) occupants.
func newFlowTable(flows []flowEntry) flowTable {
	capacity := 8
	for capacity < 2*len(flows) {
		capacity <<= 1
	}
	return flowTable{slots: make([]flowSlot, capacity), flows: flows, mask: uint32(capacity - 1)}
}

// at returns the slab entry r names, or nil for noFlow.
func (t *flowTable) at(r flowRef) *flowEntry {
	if r == noFlow {
		return nil
	}
	return &t.flows[r-1]
}

// len returns the number of stored flows.
func (t *flowTable) len() int { return t.n }

// get returns the entry for (hash, key), or nil. hash must be the key's
// canonical salt-0 hash.
func (t *flowTable) get(hash uint32, key packet.FiveTuple) *flowEntry {
	i := hash & t.mask
	for {
		s := t.slots[i]
		if s.ref == noFlow {
			return nil
		}
		if s.hash == hash {
			if e := &t.flows[s.ref-1]; e.key == key {
				return e
			}
		}
		i = (i + 1) & t.mask
	}
}

// insert indexes the slab entry e (whose key and ref are set) under its
// key's canonical hash. The caller guarantees the key is absent and
// occupancy stays within the sizing bound.
func (t *flowTable) insert(e *flowEntry, hash uint32) {
	if t.n >= len(t.slots)/2 {
		panic("core: flowTable over its load bound")
	}
	i := hash & t.mask
	for t.slots[i].ref != noFlow {
		i = (i + 1) & t.mask
	}
	t.slots[i] = flowSlot{hash: hash, ref: e.ref}
	t.n++
}

// delete removes e, compacting the probe chain behind it (backward-shift
// deletion) so lookups never need tombstones. The entry does not cache
// its hash (its slot does), so eviction, the only caller, rehashes the key.
func (t *flowTable) delete(e *flowEntry) {
	i := e.key.Hash(0) & t.mask
	for t.slots[i].ref != e.ref {
		if t.slots[i].ref == noFlow {
			panic("core: deleting a flow absent from the table")
		}
		i = (i + 1) & t.mask
	}
	t.slots[i] = flowSlot{}
	t.n--
	// Backward shift: any entry later in the probe chain whose ideal slot
	// does not lie in the (i, j] gap moves back to fill the hole.
	j := i
	for {
		j = (j + 1) & t.mask
		f := t.slots[j]
		if f.ref == noFlow {
			return
		}
		k := f.hash & t.mask
		// f may move to i unless its ideal slot k sits cyclically in (i, j].
		inGap := (j > i && k > i && k <= j) || (j < i && (k > i || k <= j))
		if !inGap {
			t.slots[i] = f
			t.slots[j] = flowSlot{}
			i = j
		}
	}
}
