package experiments

import (
	"fmt"
	"time"

	"juggler/internal/bwguard"
	"juggler/internal/fabric"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// guaranteeSetup is the Figure 17 apparatus: a 40G priority dumbbell with
// one target flow (sender 1 -> receiver 1) competing against 7 antagonist
// flows (sender 2 -> receiver 2) across a strict-priority stage-2 switch.
type guaranteeSetup struct {
	s      *sim.Sim
	target *tcp.Sender
	rcv    *tcp.Receiver
	ctrl   *bwguard.Controller
	tb     *testbed.ClosTestbed
}

func newGuaranteeSetup(o Options, kind testbed.OffloadKind) *guaranteeSetup {
	s := o.newSim()
	tb := testbed.NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 1, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond, QueueBytes: 4 * units.MB,
		// DCTCP-style shallow marking keeps the bottleneck queues short so
		// congestion is signalled by ECN rather than catastrophic drops.
		MarkBytes: 400 * units.KB,
		Priority:  true,
	})
	hostCfg := testbed.DefaultHostConfig(kind)
	hostCfg.Juggler.InseqTimeout = 13 * time.Microsecond
	// Priority-induced reordering spans the low queue's delay; give the
	// ofo timeout room for it.
	hostCfg.Juggler.OfoTimeout = 400 * time.Microsecond

	sender1 := tb.AddHost(0, hostCfg)
	sender2 := tb.AddHost(0, hostCfg)
	receiver1 := tb.AddHost(1, hostCfg)
	receiver2 := tb.AddHost(1, hostCfg)

	g := &guaranteeSetup{s: s, tb: tb}
	scfg := tcp.SenderConfig{ECN: true, MaxCwnd: 2 * units.MB}
	g.target, g.rcv = testbed.Connect(sender1, receiver1, scfg)
	g.target.SetInfinite()
	g.target.MaybeSend()
	for i := 0; i < 7; i++ {
		a, _ := testbed.Connect(sender2, receiver2, scfg)
		a.SetInfinite()
		start := time.Duration(i+1) * time.Millisecond
		s.Schedule(start, a.MaybeSend)
	}
	return g
}

// guarantee starts the dynamic-priority controller on the target flow.
func (g *guaranteeSetup) guarantee(target units.BitRate) {
	g.ctrl = bwguard.Attach(g.s, bwguard.DefaultConfig(target, units.Rate40G), g.target)
}

// fig1: bandwidth-guarantee time series. 8 flows share the 40G bottleneck
// (~5G each); at t=0 the target flow is given a 20G guarantee by dynamic
// packet prioritization. With Juggler the flow converges to 20G quickly;
// the vanilla kernel is wildly variable and far below.
func fig1(o Options) *Table {
	t := &Table{
		ID:      "fig1",
		Title:   "Bandwidth guarantee time series (8 flows on 40G, 20G guarantee at t=0)",
		Columns: []string{"kernel", "time_ms", "target_flow_Gbps"},
	}
	bin := o.scale(20 * time.Millisecond)
	before := o.scale(200 * time.Millisecond)
	after := o.scale(400 * time.Millisecond)
	kinds := []testbed.OffloadKind{testbed.OffloadJuggler, testbed.OffloadVanilla}
	for _, rows := range sweep.Map(o.Workers, len(kinds), func(pi int) [][]string {
		kind, po := kinds[pi], o.point(pi, len(kinds))
		g := newGuaranteeSetup(po, kind)
		g.s.RunFor(po.scale(300 * time.Millisecond)) // converge to fair share
		ts := stats.NewTimeSeries(bin)
		start := time.Duration(g.s.Now())
		last := g.rcv.Delivered()
		tick := sim.NewTicker(g.s, bin, func() {
			cur := g.rcv.Delivered()
			ts.Add(time.Duration(g.s.Now())-start-bin/2, float64(cur-last))
			last = cur
		})
		tick.Start()
		g.s.RunFor(before)
		g.guarantee(20 * units.Gbps) // t = 0 of the figure
		g.s.RunFor(after)
		tick.Stop()

		var rows [][]string
		for i, rate := range ts.Rates() {
			tMs := (time.Duration(i)*bin + bin/2 - before).Milliseconds()
			rows = append(rows, []string{kind.String(), fmt.Sprintf("%d", tMs), fGbps(rate)})
		}
		return rows
	}) {
		for _, row := range rows {
			t.Add(row...)
		}
	}
	t.Note("paper: before t=0 each flow averages ~5G; after t=0 the Juggler kernel tracks the 20G guarantee while the vanilla kernel is widely variable and below it")
	return t
}

// fig18: achieved versus guaranteed bandwidth sweep, Juggler vs vanilla.
func fig18(o Options) *Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Achieved vs guaranteed bandwidth (dynamic priority, 40G dumbbell)",
		Columns: []string{"guarantee_Gbps", "juggler_Gbps", "juggler_std", "vanilla_Gbps", "vanilla_std"},
	}
	guarantees := []units.BitRate{5 * units.Gbps, 10 * units.Gbps, 15 * units.Gbps,
		20 * units.Gbps, 25 * units.Gbps, 30 * units.Gbps}
	if o.Quick {
		guarantees = []units.BitRate{5 * units.Gbps, 20 * units.Gbps, 30 * units.Gbps}
	}
	warm := o.scale(300 * time.Millisecond)
	settle := o.scale(300 * time.Millisecond)
	dur := o.scale(200 * time.Millisecond)
	// One sweep point per (guarantee, kind) cell; each table row interleaves
	// the juggler and vanilla cells of one guarantee, so rows are assembled
	// after the sweep returns.
	kinds := []testbed.OffloadKind{testbed.OffloadJuggler, testbed.OffloadVanilla}
	type point struct {
		b    units.BitRate
		kind testbed.OffloadKind
	}
	var pts []point
	for _, b := range guarantees {
		for _, kind := range kinds {
			pts = append(pts, point{b, kind})
		}
	}
	cells := sweep.Map(o.Workers, len(pts), func(i int) [2]string {
		p, po := pts[i], o.point(i, len(pts))
		g := newGuaranteeSetup(po, p.kind)
		g.s.RunFor(warm)
		g.guarantee(p.b)
		g.s.RunFor(settle)
		// Sample the achieved rate in 20ms windows for mean and std.
		var w stats.Welford
		last := g.rcv.Delivered()
		win := 20 * time.Millisecond
		for el := time.Duration(0); el < dur; el += win {
			g.s.RunFor(win)
			cur := g.rcv.Delivered()
			w.Add(float64(units.Throughput(cur-last, win)))
			last = cur
		}
		return [2]string{fGbps(w.Mean()), fGbps(w.Std())}
	})
	for gi, b := range guarantees {
		row := []string{fGbps(float64(b))}
		for ki := range kinds {
			cell := cells[gi*len(kinds)+ki]
			row = append(row, cell[0], cell[1])
		}
		t.Add(row...)
	}
	t.Note("paper: Juggler tracks the guarantee closely (flooring at the 5G fair share, CPU-capped near 25G); vanilla is far below and variable because priority changes reorder packets")
	return t
}

func init() {
	register("fig1", "bandwidth-guarantee time series", fig1)
	register("fig18", "achieved vs guaranteed bandwidth sweep", fig18)
}
