package experiments

import (
	"fmt"
	"time"

	"juggler/internal/bwguard"
	"juggler/internal/fabric"
	"juggler/internal/sim"
	"juggler/internal/stats"
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
	// Priority-induced reordering spans the low queue's delay; give the
	// ofo timeout room for it.
	hostCfg.Juggler = jugglerAt(units.Rate40G, 400*time.Microsecond)

	sender1 := tb.AddHost(0, hostCfg)
	sender2 := tb.AddHost(0, hostCfg)
	receiver1 := tb.AddHost(1, hostCfg)
	receiver2 := tb.AddHost(1, hostCfg)

	g := &guaranteeSetup{s: s}
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
	bwguard.Attach(g.s, bwguard.DefaultConfig(target, units.Rate40G), g.target)
}

func init() {
	// Bandwidth-guarantee time series: 8 flows share the 40G bottleneck
	// (~5G each); at t=0 the target flow is given a 20G guarantee by
	// dynamic packet prioritization. With Juggler the flow converges to
	// 20G quickly; the vanilla kernel is wildly variable and far below.
	register("fig1", entry{
		desc:    "bandwidth-guarantee time series",
		title:   "Bandwidth guarantee time series (8 flows on 40G, 20G guarantee at t=0)",
		columns: []string{"kernel", "time_ms", "target_flow_Gbps"},
		notes:   []string{"paper: before t=0 each flow averages ~5G; after t=0 the Juggler kernel tracks the 20G guarantee while the vanilla kernel is widely variable and below it"},
		shape:   fig1Shape,
		fill: combine(fixed(testbed.OffloadJuggler, testbed.OffloadVanilla), fig1Rows,
			func(t *Table, _ []testbed.OffloadKind, results [][][]string) {
				for _, rows := range results {
					for _, row := range rows {
						t.Add(row...)
					}
				}
			}),
	})

	// Achieved versus guaranteed bandwidth, Juggler vs vanilla. One sweep
	// point per (guarantee, kernel) cell; each table row interleaves the
	// juggler and vanilla cells of one guarantee, so rows are assembled
	// after the sweep returns.
	register("fig18", entry{
		desc:    "achieved vs guaranteed bandwidth sweep",
		title:   "Achieved vs guaranteed bandwidth (dynamic priority, 40G dumbbell)",
		columns: []string{"guarantee_Gbps", "juggler_Gbps", "juggler_std", "vanilla_Gbps", "vanilla_std"},
		notes:   []string{"paper: Juggler tracks the guarantee closely (flooring at the 5G fair share, CPU-capped near 25G); vanilla is far below and variable because priority changes reorder packets"},
		shape:   fig18Shape,
		fill: combine(func(o Options) []pair[units.BitRate, testbed.OffloadKind] {
			return grid(quickOr(o, []units.BitRate{5 * units.Gbps, 10 * units.Gbps, 15 * units.Gbps,
				20 * units.Gbps, 25 * units.Gbps, 30 * units.Gbps},
				[]units.BitRate{5 * units.Gbps, 20 * units.Gbps, 30 * units.Gbps}),
				[]testbed.OffloadKind{testbed.OffloadJuggler, testbed.OffloadVanilla})
		}, fig18Cell, func(t *Table, ps []pair[units.BitRate, testbed.OffloadKind], cells [][2]string) {
			for i := 0; i < len(ps); i += 2 {
				t.Add(fGbps(float64(ps[i].a)), cells[i][0], cells[i][1], cells[i+1][0], cells[i+1][1])
			}
		}),
	})
}

// fig1Rows runs one kernel through the guarantee time series and renders
// a row per time bin.
func fig1Rows(o Options, kind testbed.OffloadKind) [][]string {
	bin := o.scale(20 * time.Millisecond)
	before := o.scale(200 * time.Millisecond)
	after := o.scale(400 * time.Millisecond)
	g := newGuaranteeSetup(o, kind)
	g.s.RunFor(o.scale(300 * time.Millisecond)) // converge to fair share
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
}

// fig18Cell measures one kernel's achieved rate, mean and std over 20ms
// windows, under guarantee p.a.
func fig18Cell(o Options, p pair[units.BitRate, testbed.OffloadKind]) [2]string {
	g := newGuaranteeSetup(o, p.b)
	g.s.RunFor(o.scale(300 * time.Millisecond))
	g.guarantee(p.a)
	g.s.RunFor(o.scale(300 * time.Millisecond)) // settle
	var w stats.Welford
	last := g.rcv.Delivered()
	win := 20 * time.Millisecond
	for el, dur := time.Duration(0), o.scale(200*time.Millisecond); el < dur; el += win {
		g.s.RunFor(win)
		cur := g.rcv.Delivered()
		w.Add(float64(units.Throughput(cur-last, win)))
		last = cur
	}
	return [2]string{fGbps(w.Mean()), fGbps(w.Std())}
}
