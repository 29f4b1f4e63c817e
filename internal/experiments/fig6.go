package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

func init() {
	// The decision mix of Juggler's receive procedure (§4) under
	// increasing reordering with light loss — how arrivals split between
	// event-driven flushes, timeout flushes, and the retransmission and
	// duplicate pass-throughs that keep loss recovery fast — against a
	// vanilla-GRO baseline running side by side in the same simulation.
	// This is the experiment to trace with juggler-doctor -experiment: one
	// parameter point exercises every instrumented layer (fabric drops,
	// NIC coalescing, vanilla GRO, Juggler core, TCP recovery, host
	// backlog), and the traced point's flight recorder footnotes the table.
	register("fig6", entry{
		desc:    "Juggler decision mix under reordering (telemetry showcase)",
		title:   "Juggler decision mix vs reordering (10G, single flow, 0.1% drops, vanilla baseline)",
		columns: []string{"reorder_us", "flush_event", "flush_inseq", "flush_ofo", "retrans_pass", "dups", "loss_epochs", "tput_Gbps", "vanilla_Gbps"},
		notes:   []string{"paper: event-driven flushes dominate at low reordering; timeouts take over as tau approaches the ofo budget, while vanilla GRO collapses"},
		shape:   fig6Shape,
		fill: combine(func(o Options) []time.Duration {
			return quickOr(o, us(0, 100, 250, 500, 750), us(0, 250, 750))
		}, fig6Point, func(t *Table, _ []time.Duration, results []fig6Result) {
			for _, r := range results {
				t.Add(r.row...)
			}
			if k := telemetry.FromSim(results[len(results)-1].s); k != nil {
				t.Note("telemetry: %d events from %d layers (%s)",
					k.Recorder.Total, k.Recorder.Layers(), k.Recorder.Summary())
			}
		}),
	})
}

// fig6Result is one reordering level's row, and its sim for the telemetry
// footnote on the traced (last) point.
type fig6Result struct {
	row []string
	s   *sim.Sim
}

func fig6Point(o Options, tau time.Duration) fig6Result {
	s := o.newSim()
	rcvHost := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcvHost.Juggler = jugglerAt(units.Rate10G, tau+200*time.Microsecond)
	rcvHost.RX = coalesceTimeBound()
	// As in lossofo, the window is pinned so the decision mix and the
	// throughput columns isolate recovery latency from congestion
	// control (the paper's senders tolerate 0.1% loss).
	sndCfg := tcp.SenderConfig{RTOMin: 5 * time.Millisecond, FixedWindow: true}
	tb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0.001,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), rcvHost)
	snd, rcv := testbed.Connect(tb.Sender, tb.Receiver, sndCfg)
	snd.SetInfinite()
	snd.MaybeSend()

	// The vanilla baseline shares the simulation (and the telemetry
	// sink) but is an independent pair on its own addresses.
	vrcvHost := testbed.DefaultHostConfig(testbed.OffloadVanilla)
	vrcvHost.RX = coalesceTimeBound()
	vtb := testbed.NewNetFPGAPair(s, units.Rate10G, tau, 0.001,
		testbed.DefaultHostConfig(testbed.OffloadVanilla), vrcvHost)
	vtb.Sender.IP = 0x0a000003
	vtb.Receiver.IP = 0x0a000004
	vsnd, vrcv := testbed.Connect(vtb.Sender, vtb.Receiver, sndCfg)
	vsnd.SetInfinite()
	vsnd.MaybeSend()

	s.RunFor(o.scale(40 * time.Millisecond)) // warm-up: exit slow start
	base, vbase := rcv.Delivered(), vrcv.Delivered()
	dur := o.scale(80 * time.Millisecond)
	s.RunFor(dur)

	var st core.Stats
	for _, j := range tb.Receiver.Jugglers {
		st.Add(j.Stats)
	}
	return fig6Result{row: []string{fDurUs(tau), fI(st.FlushEvent), fI(st.FlushInseqTimeout),
		fI(st.FlushOfoTimeout), fI(st.Retransmissions), fI(st.Duplicates),
		fI(st.LossRecoveryEntered),
		fGbps(float64(units.Throughput(rcv.Delivered()-base, dur))),
		fGbps(float64(units.Throughput(vrcv.Delivered()-vbase, dur)))}, s: s}
}
