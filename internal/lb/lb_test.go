package lb

import (
	"testing"
	"testing/quick"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

func flow(n int) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: 10, DstIP: 20, SrcPort: uint16(n), DstPort: 80, Proto: packet.ProtoTCP}
}

func TestECMPSticky(t *testing.T) {
	e := &ECMP{Salt: 5}
	p := &packet.Packet{Flow: flow(1)}
	first := e.Pick(p, 4)
	for i := 0; i < 100; i++ {
		p.Seq = uint32(i)
		p.TSOID = uint64(i)
		if e.Pick(p, 4) != first {
			t.Fatal("ECMP must be stable for a flow")
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	e := &ECMP{}
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[e.Pick(&packet.Packet{Flow: flow(i)}, 4)]++
	}
	for i, c := range counts {
		if c < 125 || c > 375 {
			t.Fatalf("path %d got %d of 1000 flows", i, c)
		}
	}
}

func TestPerPacketRoundRobin(t *testing.T) {
	s := sim.New(1)
	pp := NewPerPacket(s, false)
	p := &packet.Packet{Flow: flow(1)}
	counts := make([]int, 3)
	for i := 0; i < 99; i++ {
		counts[pp.Pick(p, 3)]++
	}
	for _, c := range counts {
		if c != 33 {
			t.Fatalf("round robin uneven: %v", counts)
		}
	}
}

func TestPerPacketRandomUniform(t *testing.T) {
	s := sim.New(2)
	pp := NewPerPacket(s, true)
	p := &packet.Packet{Flow: flow(1)}
	counts := make([]int, 2)
	for i := 0; i < 10000; i++ {
		counts[pp.Pick(p, 2)]++
	}
	if counts[0] < 4500 || counts[0] > 5500 {
		t.Fatalf("random spray skewed: %v", counts)
	}
}

func TestPerTSOPinsBurst(t *testing.T) {
	pt := &PerTSO{}
	p := &packet.Packet{Flow: flow(1), TSOID: 7}
	first := pt.Pick(p, 4)
	for seq := uint32(0); seq < 44; seq++ {
		p.Seq = seq
		if pt.Pick(p, 4) != first {
			t.Fatal("packets of one TSO must share a path")
		}
	}
}

func TestPerTSODecorrelatesBursts(t *testing.T) {
	pt := &PerTSO{}
	p := &packet.Packet{Flow: flow(1)}
	seen := map[int]bool{}
	for id := uint64(0); id < 64; id++ {
		p.TSOID = id
		seen[pt.Pick(p, 4)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("TSO bursts should use multiple paths, used %d", len(seen))
	}
}

func TestNewByName(t *testing.T) {
	s := sim.New(1)
	for _, name := range []string{PolicyECMP, PolicyPerPacket, PolicyPerTSO} {
		if New(s, name) == nil {
			t.Fatalf("New(%q) = nil", name)
		}
	}
	if New(s, "bogus") != nil {
		t.Fatal("unknown policy should return nil")
	}
	// Per-packet spraying by name is the uniform-random sprayer.
	byName, direct := New(sim.New(4), PolicyPerPacket), NewPerPacket(sim.New(4), true)
	p := &packet.Packet{Flow: flow(1)}
	for i := 0; i < 1000; i++ {
		if a, b := byName.Pick(p, 4), direct.Pick(p, 4); a != b {
			t.Fatalf("pick %d: New(%q) chose %d, NewPerPacket(s, true) chose %d", i, PolicyPerPacket, a, b)
		}
	}
}

// Property: every picker returns an index in [0, n).
func TestPropertyPickInRange(t *testing.T) {
	s := sim.New(9)
	pickers := []interface {
		Pick(*packet.Packet, int) int
	}{
		&ECMP{Salt: 3},
		NewPerPacket(s, false),
		NewPerPacket(s, true),
		&PerTSO{},
	}
	f := func(srcPort uint16, tso uint64, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		p := &packet.Packet{Flow: flow(int(srcPort)), TSOID: tso}
		for _, pk := range pickers {
			i := pk.Pick(p, n)
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
