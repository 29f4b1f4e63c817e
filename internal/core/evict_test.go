package core

import (
	"testing"
	"time"

	"juggler/internal/packet"
)

// TestEvictionAccounting checks, for both eviction policies and for the
// adapt controller's idle trim, which flow is evicted and that evict
// counts it in the Stats counter of the list the victim was on.
func TestEvictionAccounting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy EvictionPolicy
		// lists names the list each flow is built onto, oldest first; loss
		// flows come first because building them lets time pass.
		lists []string
		// trim, when positive, applies Retune{MaxIdleFlows: trim} instead
		// of admitting a new flow into the full table.
		trim   int
		victim int // index into lists of the flow that must go
	}{
		{name: "inactive-first/all-lists", policy: EvictInactiveFirst,
			lists: []string{"loss", "active", "inactive"}, victim: 2},
		{name: "inactive-first/no-inactive", policy: EvictInactiveFirst,
			lists: []string{"loss", "active"}, victim: 1},
		{name: "inactive-first/loss-only", policy: EvictInactiveFirst,
			lists: []string{"loss"}, victim: 0},
		{name: "fifo/all-lists", policy: EvictFIFO,
			lists: []string{"loss", "inactive", "active"}, victim: 2},
		{name: "fifo/loss-before-inactive", policy: EvictFIFO,
			lists: []string{"loss", "inactive"}, victim: 0},
		{name: "fifo/inactive-only", policy: EvictFIFO,
			lists: []string{"inactive"}, victim: 0},
		{name: "idle-trim", policy: EvictInactiveFirst,
			lists: []string{"loss", "inactive", "active", "inactive"}, trim: 1, victim: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfgTest()
			cfg.MaxFlows = len(tc.lists)
			if tc.trim > 0 {
				cfg.MaxFlows++ // room to spare: only the trim evicts
			}
			cfg.Eviction = tc.policy
			h := newHarness(cfg)
			send := func(f, seqMSS int, flags packet.Flags) {
				p := dataPkt(seqMSS)
				p.Flow = flowN(f)
				p.Flags |= flags
				h.recv(p)
			}

			// Loss flows: flush packet 0 at inseq_timeout, open a hole at
			// packet 1, and let ofo_timeout expire it into loss recovery.
			for f, l := range tc.lists {
				if l == "loss" {
					send(f, 0, 0)
				}
			}
			h.run(20 * time.Microsecond)
			for f, l := range tc.lists {
				if l == "loss" {
					send(f, 2, 0)
				}
			}
			h.run(60 * time.Microsecond)
			// Inactive flows deliver one sealed packet and drain at once;
			// active flows buffer one packet and are left holding it.
			for f, l := range tc.lists {
				switch l {
				case "inactive":
					send(f, 0, packet.FlagPSH)
				case "active":
					send(f, 0, 0)
				}
			}
			want := map[string]listID{"inactive": inactiveList, "active": activeList, "loss": lossList}
			for f, l := range tc.lists {
				if e := h.entry(flowN(f)); e == nil || e.list != want[l] {
					t.Fatalf("setup: flow %d is not on the %s list", f, l)
				}
			}

			if tc.trim > 0 {
				h.j.Retune(Retune{MaxIdleFlows: tc.trim})
			} else {
				send(len(tc.lists), 0, 0)
			}

			for f := range tc.lists {
				if gone := h.entry(flowN(f)) == nil; gone != (f == tc.victim) {
					t.Fatalf("flow %d evicted=%v, want victim %d", f, gone, tc.victim)
				}
			}
			counts := map[string]int64{"inactive": 0, "active": 0, "loss": 0}
			counts[tc.lists[tc.victim]] = 1
			st := h.j.Stats
			if st.EvictionsInactive != counts["inactive"] || st.EvictionsActive != counts["active"] ||
				st.EvictionsLoss != counts["loss"] {
				t.Fatalf("evictions inactive/active/loss = %d/%d/%d, want %d/%d/%d",
					st.EvictionsInactive, st.EvictionsActive, st.EvictionsLoss,
					counts["inactive"], counts["active"], counts["loss"])
			}
			// Only an active victim still held a packet to flush.
			wantFlush := int64(0)
			if tc.lists[tc.victim] == "active" {
				wantFlush = 1
			}
			if st.FlushEvict != wantFlush {
				t.Fatalf("FlushEvict = %d, want %d", st.FlushEvict, wantFlush)
			}
			if err := h.j.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
