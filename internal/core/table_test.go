package core

import (
	"testing"
	"unsafe"

	"juggler/internal/packet"
)

func tblKey(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: uint32(i%7) + 1, DstIP: 2,
		SrcPort: uint16(i), DstPort: 5001, Proto: packet.ProtoTCP,
	}
}

// slabTable returns a table over a fresh slab of n entries, each given
// its ref, as Juggler.newFlow does when it hands an entry out.
func slabTable(n int) flowTable {
	tbl := newFlowTable(make([]flowEntry, n))
	for i := range tbl.flows {
		tbl.flows[i].ref = flowRef(i + 1)
	}
	return tbl
}

// put indexes slab entry i under key.
func (t *flowTable) put(i int, key packet.FiveTuple) *flowEntry {
	e := &t.flows[i]
	e.key = key
	t.insert(e, key.Hash(0))
	return e
}

func TestFlowTableBasics(t *testing.T) {
	tbl := slabTable(4) // capacity 8: heavy collisions by construction
	entries := map[packet.FiveTuple]*flowEntry{}
	for i := 0; i < 4; i++ {
		key := tblKey(i)
		entries[key] = tbl.put(i, key)
	}
	if tbl.len() != 4 {
		t.Fatalf("len = %d, want 4", tbl.len())
	}
	for key, e := range entries {
		if tbl.get(key.Hash(0), key) != e {
			t.Fatalf("lookup of %v failed", key)
		}
	}
	if tbl.get(tblKey(99).Hash(0), tblKey(99)) != nil {
		t.Fatal("absent key found")
	}
	// Delete from the middle of probe chains; the survivors must all stay
	// reachable (backward-shift compaction).
	tbl.delete(entries[tblKey(1)])
	delete(entries, tblKey(1))
	tbl.delete(entries[tblKey(3)])
	delete(entries, tblKey(3))
	for key, e := range entries {
		if tbl.get(key.Hash(0), key) != e {
			t.Fatalf("lookup of %v failed after deletes", key)
		}
	}
	if tbl.len() != 2 {
		t.Fatalf("len = %d, want 2", tbl.len())
	}
}

func TestFlowTableOverLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("insert beyond the load bound should panic")
		}
	}()
	tbl := slabTable(2)            // capacity 8, bound 4
	tbl.flows = slabTable(5).flows // more entries than the table was sized for
	for i := 0; i < 5; i++ {
		tbl.put(i, tblKey(i))
	}
}

// FuzzFlowTable differentially checks the open-addressing table against a
// plain Go map under arbitrary insert/delete/lookup interleavings. Keys are
// drawn from a small space and the table is sized tiny, so probe chains
// wrap the slot array and deletions constantly compact through collisions —
// the regimes where backward-shift bugs live.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 64 + 0, 3, 64 + 2, 0})
	f.Add([]byte{5, 6, 7, 8, 64 + 5, 64 + 8, 5, 8})
	f.Fuzz(func(t *testing.T, program []byte) {
		const maxFlows = 8 // capacity 16
		tbl := slabTable(maxFlows)
		ref := map[packet.FiveTuple]*flowEntry{}
		var free []int // slab entries not in the table
		for i := maxFlows - 1; i >= 0; i-- {
			free = append(free, i)
		}
		for _, op := range program {
			key := tblKey(int(op % 32))
			switch {
			case op < 64: // insert (if absent and within the occupancy bound)
				if ref[key] == nil && len(ref) < maxFlows {
					ref[key] = tbl.put(free[len(free)-1], key)
					free = free[:len(free)-1]
				}
			case op < 128: // delete (if present)
				if e := ref[key]; e != nil {
					tbl.delete(e)
					delete(ref, key)
					free = append(free, int(e.ref-1))
				}
			}
			// Every key in the space must agree with the reference map.
			for i := 0; i < 32; i++ {
				k := tblKey(i)
				if got, want := tbl.get(k.Hash(0), k), ref[k]; got != want {
					t.Fatalf("lookup %v: got %p, want %p", k, got, want)
				}
			}
			if tbl.len() != len(ref) {
				t.Fatalf("len = %d, want %d", tbl.len(), len(ref))
			}
		}
	})
}

// TestFlowLayoutSize pins the flow slab's footprint. New allocates
// MaxFlows entries and at least twice as many index slots per Juggler,
// whether or not flows ever arrive, so a field that grows either type
// costs every instance that much.
func TestFlowLayoutSize(t *testing.T) {
	if n := unsafe.Sizeof(flowSlot{}); n != 8 {
		t.Fatalf("flowSlot is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(flowEntry{}); n > 136 {
		t.Fatalf("flowEntry is %d bytes, want <= 136", n)
	}
}
