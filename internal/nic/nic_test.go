package nic

import (
	"testing"
	"time"

	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/units"
)

var flow = packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}

type capture struct {
	pkts []*packet.Packet
	at   []sim.Time
	s    *sim.Sim
}

func (c *capture) Deliver(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	if c.s != nil {
		c.at = append(c.at, c.s.Now())
	}
}

func TestTSOSegmentation(t *testing.T) {
	s := sim.New(1)
	dst := &capture{s: s}
	port := fabric.NewPort(s, "tx", units.Rate40G, 0, nil, dst)
	tx := NewTX(s, port)

	tmpl := packet.Packet{Flow: flow, Flags: packet.FlagACK | packet.FlagPSH, Priority: packet.PrioLow, OptSig: 7}
	tx.SendTSO(tmpl, 1000, units.TSOMaxBytes)
	s.Run()

	if len(dst.pkts) != 45 { // 44 full MSS + 1 remainder
		t.Fatalf("packets = %d, want 45", len(dst.pkts))
	}
	total := 0
	for i, p := range dst.pkts {
		total += p.PayloadLen
		if p.Seq != 1000+uint32(i*units.MSS) {
			t.Fatalf("packet %d seq = %d", i, p.Seq)
		}
		if p.TSOID != dst.pkts[0].TSOID {
			t.Fatal("TSO burst must share one TSOID")
		}
		if p.OptSig != 7 {
			t.Fatal("options signature must propagate")
		}
		if i < len(dst.pkts)-1 && p.Flags.Has(packet.FlagPSH) {
			t.Fatal("PSH only on the last packet of the burst")
		}
	}
	if !dst.pkts[len(dst.pkts)-1].Flags.Has(packet.FlagPSH) {
		t.Fatal("last packet must carry PSH")
	}
	if total != units.TSOMaxBytes {
		t.Fatalf("payload = %d", total)
	}
	if tx.TSOBursts != 1 || tx.TxPackets != 45 {
		t.Fatalf("counters: bursts=%d pkts=%d", tx.TSOBursts, tx.TxPackets)
	}
}

func TestTSOBurstIsBackToBackAtLineRate(t *testing.T) {
	s := sim.New(1)
	dst := &capture{s: s}
	port := fabric.NewPort(s, "tx", units.Rate10G, 0, nil, dst)
	tx := NewTX(s, port)
	tx.SendTSO(packet.Packet{Flow: flow, Flags: packet.FlagACK}, 0, 10*units.MSS)
	s.Run()
	txTime := units.TxTime(units.MTU, units.Rate10G)
	for i := 1; i < len(dst.at); i++ {
		if got := dst.at[i] - dst.at[i-1]; got != sim.Time(txTime) {
			t.Fatalf("inter-packet gap %v, want %v (line rate)", got, txTime)
		}
	}
}

func TestTSOIDsDistinctAcrossBursts(t *testing.T) {
	s := sim.New(1)
	dst := &capture{}
	port := fabric.NewPort(s, "tx", units.Rate40G, 0, nil, dst)
	tx := NewTX(s, port)
	tx.SendTSO(packet.Packet{Flow: flow, Flags: packet.FlagACK}, 0, units.MSS)
	tx.SendTSO(packet.Packet{Flow: flow, Flags: packet.FlagACK}, uint32(units.MSS), units.MSS)
	s.Run()
	if dst.pkts[0].TSOID == dst.pkts[1].TSOID {
		t.Fatal("different bursts must have different TSOIDs")
	}
}

func mkRX(s *sim.Sim, cfg RXConfig) (*RX, *[]*packet.Segment) {
	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	var segs []*packet.Segment
	rx := NewRX(s, cfg, cpu, func(int) gro.Offload {
		return gro.NewVanilla(func(seg *packet.Segment) { segs = append(segs, seg) })
	})
	return rx, &segs
}

func dataPkt(seqMSS int) *packet.Packet {
	return &packet.Packet{Flow: flow, Seq: uint32(seqMSS * units.MSS), PayloadLen: units.MSS, Flags: packet.FlagACK}
}

func TestRXCoalesceTimeBound(t *testing.T) {
	s := sim.New(1)
	cfg := RXConfig{Queues: 1, CoalesceDelay: 100 * time.Microsecond, CoalesceFrames: 0}
	rx, segs := mkRX(s, cfg)
	rx.Deliver(dataPkt(0))
	s.RunFor(50 * time.Microsecond)
	if len(*segs) != 0 {
		t.Fatal("no poll before the coalesce delay")
	}
	s.RunFor(60 * time.Microsecond)
	if len(*segs) != 1 {
		t.Fatalf("coalesce timer should have fired: segs=%d", len(*segs))
	}
}

func TestRXCoalesceFrameBound(t *testing.T) {
	s := sim.New(1)
	cfg := RXConfig{Queues: 1, CoalesceDelay: time.Second, CoalesceFrames: 4}
	rx, segs := mkRX(s, cfg)
	for i := 0; i < 3; i++ {
		rx.Deliver(dataPkt(i))
	}
	s.RunFor(time.Millisecond)
	if len(*segs) != 0 {
		t.Fatal("3 frames under the bound: no interrupt yet")
	}
	rx.Deliver(dataPkt(3)) // 4th frame fires the interrupt immediately
	s.RunFor(time.Millisecond)
	if len(*segs) != 1 {
		t.Fatalf("frame bound should trigger the poll: segs=%d", len(*segs))
	}
	if (*segs)[0].Pkts != 4 {
		t.Fatalf("batch merged %d pkts, want 4", (*segs)[0].Pkts)
	}
}

func TestRXNAPIStaysPollingUnderLoad(t *testing.T) {
	s := sim.New(1)
	cfg := RXConfig{Queues: 1, CoalesceDelay: 10 * time.Microsecond, CoalesceFrames: 8}
	rx, segs := mkRX(s, cfg)
	// Steady arrival stream: packets every 1.23us (10G line rate).
	for i := 0; i < 200; i++ {
		i := i
		s.Schedule(time.Duration(i)*1230*time.Nanosecond, func() {
			rx.Deliver(dataPkt(i))
		})
	}
	s.Run()
	total := 0
	for _, seg := range *segs {
		total += seg.Pkts
	}
	if total != 200 {
		t.Fatalf("delivered %d packets, want 200", total)
	}
	info := rx.Queue(0)
	if info.Polls < 2 {
		t.Fatal("expected multiple NAPI polls")
	}
	// Under continuous load, later polls should batch multiple packets:
	// 200 packets in fewer than 200 polls means some poll took several.
	if info.Polls >= 200 {
		t.Fatalf("%d polls for 200 packets: expected multi-packet poll batches", info.Polls)
	}
}

func TestRXRSSSteering(t *testing.T) {
	s := sim.New(1)
	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	perQueue := map[int]int{}
	rx := NewRX(s, RXConfig{Queues: 4, CoalesceDelay: time.Microsecond}, cpu,
		func(q int) gro.Offload {
			return gro.NewNull(func(seg *packet.Segment) { perQueue[q]++ })
		})
	for i := 0; i < 64; i++ {
		f := flow
		f.SrcPort = uint16(i)
		rx.Deliver(&packet.Packet{Flow: f, PayloadLen: 100, Flags: packet.FlagACK})
	}
	s.Run()
	if len(perQueue) < 2 {
		t.Fatalf("RSS should spread flows across queues: %v", perQueue)
	}
	// Same flow always lands on the same queue.
	perQueue2 := map[int]int{}
	for i := 0; i < 8; i++ {
		rx.Deliver(&packet.Packet{Flow: flow, Seq: uint32(i), PayloadLen: 100, Flags: packet.FlagACK})
	}
	s.Run()
	_ = perQueue2
}

func TestRXSteerAllToQueue0(t *testing.T) {
	s := sim.New(1)
	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	perQueue := map[int]int{}
	rx := NewRX(s, RXConfig{Queues: 4, CoalesceDelay: time.Microsecond, SteerToQueue0: true}, cpu,
		func(q int) gro.Offload {
			return gro.NewNull(func(seg *packet.Segment) { perQueue[q]++ })
		})
	for i := 0; i < 32; i++ {
		f := flow
		f.SrcPort = uint16(i)
		rx.Deliver(&packet.Packet{Flow: f, PayloadLen: 100, Flags: packet.FlagACK})
	}
	s.Run()
	if len(perQueue) != 1 || perQueue[0] != 32 {
		t.Fatalf("all packets should hit queue 0: %v", perQueue)
	}
}

func TestRXChargesCPU(t *testing.T) {
	s := sim.New(1)
	cpu := cpumodel.New(s, cpumodel.DefaultCosts())
	var segs int
	rx := NewRX(s, RXConfig{Queues: 1, CoalesceDelay: time.Microsecond}, cpu,
		func(int) gro.Offload {
			return gro.NewVanilla(func(seg *packet.Segment) { segs++ })
		})
	for i := 0; i < 10; i++ {
		rx.Deliver(dataPkt(i))
	}
	s.Run()
	if cpu.RX.BusyTotal() == 0 {
		t.Fatal("RX core should have been charged")
	}
	if cpu.App.BusyTotal() != 0 {
		t.Fatal("app core is charged by the host layer, not the NIC")
	}
}
