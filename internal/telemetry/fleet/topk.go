package fleet

import (
	"sort"

	"juggler/internal/packet"
)

// TopEntry is one heavy hitter: the key's estimated weight Count and the
// worst-case overestimate Err (true weight is in [Count-Err, Count]).
// Tuple carries the flow identity for flow-keyed trackers (zero for
// host-keyed ones, where the key is a host index the report resolves to
// a name).
type TopEntry struct {
	Key   uint64
	Tuple packet.FiveTuple
	Count int64
	Err   int64
}

// TopK is a space-saving heavy-hitter tracker (Metwally et al.) over a
// fixed number of slots. Observe is O(k) — k is small by design (the
// report wants a top-8 table, not a frequency oracle) — allocation-free
// after construction, and fully deterministic: the eviction victim is
// the first minimum-count slot in stable slot order, which depends only
// on the observation stream.
//
// Standard space-saving guarantees, checked by the differential fuzz:
//
//   - every tracked key's true weight w satisfies
//     Count-Err <= w <= Count;
//   - any key with true weight > W/k (W = total observed weight) is
//     tracked.
//
// Merge implements the mergeable-summaries combination: the union of
// both slot sets, where a key absent from one side is credited that
// side's minimum count as additional error (it could have been evicted
// holding up to that much weight), then pruned back to k slots. The
// union is iterated in sorted-key order and pruning sorts by
// (Count desc, Err asc, Key asc), so Merge is order-deterministic —
// merging the same leaf trackers in the same structural order yields
// identical bytes regardless of execution schedule — and exactly
// associative whenever the running union fits in k slots.
type TopK struct {
	k     int
	slots []TopEntry
	total int64
}

// NewTopK returns a tracker with k slots (k >= 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, slots: make([]TopEntry, 0, k)}
}

// Total returns the total observed weight.
func (t *TopK) Total() int64 { return t.total }

// Observe adds weight inc to key. Non-positive increments are ignored.
func (t *TopK) Observe(key uint64, tuple packet.FiveTuple, inc int64) {
	if inc <= 0 {
		return
	}
	t.total += inc
	for i := range t.slots {
		if t.slots[i].Key == key {
			t.slots[i].Count += inc
			return
		}
	}
	if len(t.slots) < t.k {
		t.slots = append(t.slots, TopEntry{Key: key, Tuple: tuple, Count: inc})
		return
	}
	// Space-saving eviction: replace the first minimum-count slot; the
	// newcomer inherits the victim's count as its overestimate.
	v := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].Count < t.slots[v].Count {
			v = i
		}
	}
	minCount := t.slots[v].Count
	t.slots[v] = TopEntry{Key: key, Tuple: tuple, Count: minCount + inc, Err: minCount}
}

// minCount returns the smallest tracked count — the eviction bar, and
// the cross-merge error credit for absent keys. Zero while slots remain
// free (an absent key then truly has weight zero).
func (t *TopK) minCount() int64 {
	if len(t.slots) < t.k {
		return 0
	}
	m := t.slots[0].Count
	for _, e := range t.slots[1:] {
		if e.Count < m {
			m = e.Count
		}
	}
	return m
}

// Entries returns the tracked heavy hitters sorted by
// (Count desc, Err asc, Key asc) — the deterministic report order.
func (t *TopK) Entries() []TopEntry {
	out := append([]TopEntry(nil), t.slots...)
	sortEntries(out)
	return out
}

func sortEntries(es []TopEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		if es[i].Err != es[j].Err {
			return es[i].Err < es[j].Err
		}
		return es[i].Key < es[j].Key
	})
}

// Merge folds o into t (see the type comment for the guarantees). Merge
// allocates; it runs at report time, not on the datapath.
func (t *TopK) Merge(o *TopK) {
	if o == nil || len(o.slots) == 0 {
		t.total += o.Total()
		return
	}
	tMin, oMin := t.minCount(), o.minCount()
	union := make(map[uint64]TopEntry, len(t.slots)+len(o.slots))
	for _, e := range t.slots {
		union[e.Key] = e
	}
	for _, e := range o.slots {
		if have, ok := union[e.Key]; ok {
			have.Count += e.Count
			have.Err += e.Err
			if have.Tuple == (packet.FiveTuple{}) {
				have.Tuple = e.Tuple
			}
			union[e.Key] = have
		} else {
			// Absent from t: t may have evicted it holding up to tMin.
			union[e.Key] = TopEntry{Key: e.Key, Tuple: e.Tuple,
				Count: e.Count + tMin, Err: e.Err + tMin}
		}
	}
	for _, e := range t.slots {
		if _, stillOurs := union[e.Key]; stillOurs {
			if _, inOther := o.find(e.Key); !inOther {
				u := union[e.Key]
				u.Count += oMin
				u.Err += oMin
				union[e.Key] = u
			}
		}
	}
	merged := make([]TopEntry, 0, len(union))
	keys := make([]uint64, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		merged = append(merged, union[k])
	}
	sortEntries(merged)
	if len(merged) > t.k {
		merged = merged[:t.k]
	}
	t.slots = merged
	t.total += o.total
}

func (t *TopK) find(key uint64) (TopEntry, bool) {
	for _, e := range t.slots {
		if e.Key == key {
			return e, true
		}
	}
	return TopEntry{}, false
}

// FlowKey folds a five-tuple into the TopK key space deterministically
// (no salt, no per-process randomness).
func FlowKey(f packet.FiveTuple) uint64 {
	k := uint64(f.SrcIP)<<32 | uint64(f.DstIP)
	k ^= uint64(f.SrcPort)<<48 | uint64(f.DstPort)<<32 | uint64(f.Proto)
	// A fixed 64-bit mix (splitmix64 finalizer) spreads adjacent tuples.
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}
