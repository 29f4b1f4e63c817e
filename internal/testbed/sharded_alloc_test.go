package testbed

import (
	"testing"
	"time"

	"juggler/internal/core"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

// shardedRXCycle builds a warm sharded datapath (4 queues on 2 lanes) and
// returns one steady-state round: each of 32 flows sends the flow-scale
// 4-packet pattern (two in sequence, then a displaced PSH-sealed pair)
// into one 20us epoch. The packet is minted into a reused slot because
// Inject copies it into the queue slab — the coordinator's staging path.
func shardedRXCycle() func() {
	h := NewShardedHost(1, ShardedHostConfig{
		RX:      nic.ShardedRXConfig{Queues: 4, Shards: 2},
		Offload: OffloadJuggler,
		Juggler: core.Config{
			InseqTimeout: 15 * time.Microsecond,
			OfoTimeout:   50 * time.Microsecond,
			MaxFlows:     64,
		},
	})
	const flows = 32
	const interval = 20 * time.Microsecond
	var pkt packet.Packet
	var round int
	send := func(at sim.Time, f int, seq uint32, flags packet.Flags) {
		pkt = packet.Packet{
			Flow: packet.FiveTuple{SrcIP: uint32(f) + 1, DstIP: 9,
				SrcPort: uint16(f), DstPort: 5001, Proto: packet.ProtoTCP},
			Seq: 1 + seq*units.MSS, PayloadLen: units.MSS,
			Flags: packet.FlagACK | flags,
		}
		h.RX.Inject(at, &pkt)
	}
	return func() {
		at := sim.Time(0).Add(time.Duration(round) * interval)
		base := uint32(round) * 4
		for f := 0; f < flows; f++ {
			send(at, f, base, 0)
			send(at, f, base+1, 0)
			send(at, f, base+3, packet.FlagPSH)
			send(at, f, base+2, 0)
		}
		h.RX.RunEpoch(at.Add(interval))
		round++
	}
}

// TestShardedRXSteadyAllocs pins the sharded receive datapath's steady
// state to zero allocations: one warm stage->post->epoch round (4 queues
// on 2 real lane goroutines, 32 flows x the flow-scale 4-packet pattern)
// must not allocate. AllocsPerRun counts mallocs process-wide, so a
// regression on either side of the barrier — coordinator staging slabs,
// mailbox posting, lane-side arrival scheduling, the offload's receive
// work — fails here.
func TestShardedRXSteadyAllocs(t *testing.T) {
	cycle := shardedRXCycle()
	for i := 0; i < 8; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("sharded datapath steady state allocates %.1f per cycle, want 0", a)
	}
}
