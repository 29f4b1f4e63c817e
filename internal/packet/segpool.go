package packet

import "juggler/internal/sim"

// SegPool is a free list of Segment objects for one simulation, the
// segment-side counterpart of Pool. The offload layer (Juggler's
// out-of-order queues, the pass-through and duplicate paths) mints every
// Segment through it; ownership then travels with the segment, and
// whichever component ends its life returns it — the testbed host after
// the TCP endpoint consumed it, drop paths immediately, harnesses that
// drive the core directly from their deliver callback. One Get/Put cycle
// per delivered segment makes steady-state hole creation allocation-free.
//
// All methods are nil-safe: a nil *SegPool degrades to plain heap
// allocation, so components work unchanged in harnesses that never
// install a pool.
//
// A SegPool is not safe for concurrent use; like everything else hanging
// off a Sim it belongs to exactly one single-threaded simulation.
type SegPool struct {
	// free chains the recycled segments through their next links (top of
	// the stack first), so returning a segment writes two pointers and
	// never grows a slice.
	free *Segment
	// Gets and Reuses count pool traffic for benchmarks: Gets is total
	// allocations requested, Reuses how many were served from the free list.
	Gets, Reuses uint64
	// Puts counts segments returned; with every segment minted through the
	// pool, Gets-Puts is the number of live (unrecycled) segments — the
	// leak figure the chaos invariant checker asserts is zero at
	// quiescence.
	Puts uint64
}

// Get returns a zeroed Segment, recycled when possible.
func (pl *SegPool) Get() *Segment {
	s := pl.get()
	*s = Segment{}
	return s
}

// get returns a recycled or freshly allocated Segment WITHOUT the zeroing
// Get performs (only the free-list link is cleared). FromPacket uses it to
// skip a wholesale clear of a struct it is about to overwrite field by
// field; any other caller must assign every field itself.
func (pl *SegPool) get() *Segment {
	if pl == nil {
		return &Segment{}
	}
	pl.Gets++
	s := pl.free
	if s == nil {
		return &Segment{}
	}
	pl.free = s.next
	s.next = nil
	pl.Reuses++
	return s
}

// Put returns s to the free list. Callers must not touch s afterwards.
// Putting nil (or into a nil pool) is a no-op, so drop paths can recycle
// unconditionally.
func (pl *SegPool) Put(s *Segment) {
	if pl == nil || s == nil {
		return
	}
	pl.Puts++
	s.next = pl.free
	pl.free = s
}

// Live returns the number of segments minted but not yet returned. At
// quiescence — queues drained, endpoints idle — every segment's owner has
// recycled it, so a non-zero Live is a leak (or a double Put, which shows
// up negative).
func (pl *SegPool) Live() int64 {
	if pl == nil {
		return 0
	}
	return int64(pl.Gets) - int64(pl.Puts)
}

// FromPacket builds a single-packet segment from the pool, preserving the
// fields GRO carries upward — the pooled equivalent of FromPacket.
func (pl *SegPool) FromPacket(p *Packet) *Segment {
	s := pl.get()
	// get skips Get's zeroing, so the three fields not taken from the
	// packet are cleared by hand — much cheaper than re-zeroing the whole
	// struct (Stamps alone is 48 bytes) right before overwriting it.
	s.Kind = 0
	s.OOO = false
	s.Ranges = nil
	s.Flow = p.Flow
	s.Seq = p.Seq
	s.Bytes = p.PayloadLen
	s.Pkts = 1
	s.Flags = p.Flags
	s.AckSeq = p.AckSeq
	s.OptSig = p.OptSig
	s.CE = p.CE
	s.SACKStart = p.SACKStart
	s.SACKEnd = p.SACKEnd
	s.FirstSentAt = p.SentAt
	s.LastSentAt = p.SentAt
	s.Stamps = p.Stamps
	s.SkipStamps = p.SkipStamps
	return s
}

// SegPoolFromSim returns the simulation's shared segment pool, creating
// and installing one in the Sim.SegmentPool slot on first use (mirroring
// PoolFromSim). A nil Sim yields a nil SegPool, which is valid (see
// SegPool).
func SegPoolFromSim(s *sim.Sim) *SegPool {
	if s == nil {
		return nil
	}
	if pl, ok := s.SegmentPool.(*SegPool); ok {
		return pl
	}
	pl := &SegPool{}
	s.SegmentPool = pl
	return pl
}
