package experiments

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/sim"
	"juggler/internal/sweep"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// fig6: the decision mix of Juggler's receive procedure (§4) under
// increasing reordering with light loss — how arrivals split between
// event-driven flushes, timeout flushes, and the retransmission/duplicate
// pass-throughs that keep loss recovery fast — against a vanilla-GRO
// baseline running side by side in the same simulation. This is the
// experiment to trace with juggler-doctor -experiment: one parameter
// point exercises every instrumented layer (fabric drops, NIC coalescing,
// vanilla GRO, Juggler core, TCP recovery, host backlog).
func fig6(o Options) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "Juggler decision mix vs reordering (10G, single flow, 0.1% drops, vanilla baseline)",
		Columns: []string{"reorder_us", "flush_event", "flush_inseq", "flush_ofo", "retrans_pass", "dups", "loss_epochs", "tput_Gbps", "vanilla_Gbps"},
	}
	taus := []time.Duration{0, 100 * time.Microsecond, 250 * time.Microsecond,
		500 * time.Microsecond, 750 * time.Microsecond}
	if o.Quick {
		taus = []time.Duration{0, 250 * time.Microsecond, 750 * time.Microsecond}
	}
	type result struct {
		row []string
		s   *sim.Sim // for the telemetry footnote on the traced (last) point
	}
	results := sweep.Map(o.Workers, len(taus), func(pi int) result {
		tau, po := taus[pi], o.point(pi, len(taus))
		s := po.newSim()
		jcfg := core.DefaultConfig()
		jcfg.InseqTimeout = 52 * time.Microsecond
		jcfg.OfoTimeout = tau + 200*time.Microsecond
		rcvHost := testbed.DefaultHostConfig(testbed.OffloadJuggler)
		rcvHost.Juggler = jcfg
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

		s.RunFor(po.scale(40 * time.Millisecond)) // warm-up: exit slow start
		base, vbase := rcv.Delivered(), vrcv.Delivered()
		dur := po.scale(80 * time.Millisecond)
		s.RunFor(dur)

		var st core.Stats
		for _, j := range tb.Receiver.Jugglers {
			js := j.Stats
			st.FlushEvent += js.FlushEvent
			st.FlushInseqTimeout += js.FlushInseqTimeout
			st.FlushOfoTimeout += js.FlushOfoTimeout
			st.Retransmissions += js.Retransmissions
			st.Duplicates += js.Duplicates
			st.LossRecoveryEntered += js.LossRecoveryEntered
		}
		return result{row: []string{fDurUs(tau), fI(st.FlushEvent), fI(st.FlushInseqTimeout),
			fI(st.FlushOfoTimeout), fI(st.Retransmissions), fI(st.Duplicates),
			fI(st.LossRecoveryEntered),
			fGbps(float64(units.Throughput(rcv.Delivered()-base, dur))),
			fGbps(float64(units.Throughput(vrcv.Delivered()-vbase, dur)))}, s: s}
	})
	for _, r := range results {
		t.Add(r.row...)
	}
	t.Note("paper: event-driven flushes dominate at low reordering; timeouts take over as tau approaches the ofo budget, while vanilla GRO collapses")
	telemetryNote(t, results[len(results)-1].s)
	return t
}

func init() {
	register("fig6", "Juggler decision mix under reordering (telemetry showcase)", fig6)
}
