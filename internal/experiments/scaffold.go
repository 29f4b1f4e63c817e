package experiments

import (
	"reflect"
	"time"

	"juggler/internal/core"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/lb"
	"juggler/internal/msgt"
	"juggler/internal/netfilter"
	"juggler/internal/nic"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// newClos builds the Figure-19 fabric the Clos experiments share: two
// ToRs under two spines, 40G links with 200ns propagation, drop-tail
// queues of queueBytes, and the named load-balancing policy (lb.Policy*)
// on the ToR uplinks.
func newClos(s *sim.Sim, queueBytes int, policy string) *testbed.ClosTestbed {
	return testbed.NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond, QueueBytes: queueBytes,
		UplinkLB: lb.New(s, policy),
	})
}

// watch names what one row reads over its measurement window; every
// field is optional. host is the receiving host (its CPU windows, offload,
// Juggler and conntrack counters); msgRcv, msgSnd and rx are ext-sctp's
// msgt endpoints and receive NIC. samplers drop what they took in before
// the window, ports get fresh occupancy probes, and tick runs every 100µs
// inside the window only.
type watch struct {
	host     *testbed.Host
	rcvs     []*tcp.Receiver
	snds     []*tcp.Sender
	msgRcv   *msgt.Receiver
	msgSnd   *msgt.Sender
	rx       *nic.RX
	gens     []*workload.PoissonRPCGen
	samplers []*stats.Sampler
	ports    []*fabric.Port
	tick     func()
}

// tally is what accrued inside one measurement window: Elapsed is virtual
// time (since t = 0 in a snapshot, the window's length in a tally); Bytes,
// Segs, OOO and Acks are the receivers' delivered bytes, segments,
// out-of-order segments and ACKs sent, Retrans the senders'
// retransmissions, Generated and Shed the RPC arrivals. One reflective
// walk (sub) subtracts the opening snapshot from every integer field. The
// float64 fields are gauges the window restarted, read at its close: the
// utilisation of the host's queue-0 RX core, its busiest RX core and its
// app core.
type tally struct {
	Elapsed                                          time.Duration
	Bytes, Segs, OOO, Acks, Retrans, Generated, Shed int64
	Offload                                          gro.Counters
	Juggler                                          core.Stats
	CT                                               netfilter.Stats
	RXUtil, RXMaxUtil, AppUtil                       float64
}

// measure is the one measurement-window policy. It runs the warm-up, then
// opens a window on every watch — restarting the host's CPU windows,
// resetting the samplers, installing fresh probes, starting the tick and
// snapshotting the counters — runs dur (both scaled by o), and returns
// each watch's tally over the window, in order. A zero warm opens the next
// window where the last one closed.
func measure(o Options, s *sim.Sim, warm, dur time.Duration, ws ...*watch) []tally {
	s.RunFor(o.scale(warm))
	t := make([]tally, len(ws))
	for i, w := range ws {
		if w.host != nil {
			w.host.CPU.ResetWindows()
		}
		for _, x := range w.samplers {
			x.Reset()
		}
		for _, p := range w.ports {
			p.Probe = &fabric.OccupancyProbe{}
		}
		if w.tick != nil {
			tk := sim.NewTicker(s, 100*time.Microsecond, w.tick)
			tk.Start()
			defer tk.Stop() // at return: the window closes then
		}
		t[i] = w.read(s)
	}
	s.RunFor(o.scale(dur))
	for i, w := range ws {
		t1 := w.read(s)
		sub(reflect.ValueOf(&t1).Elem(), reflect.ValueOf(t[i]))
		t[i] = t1
	}
	return t
}

// read snapshots the watched counters and gauges.
func (w *watch) read(s *sim.Sim) tally {
	t := tally{Elapsed: time.Duration(s.Now())}
	for _, r := range w.rcvs {
		t.Bytes += r.Delivered()
		t.Segs += r.Stats.SegmentsIn
		t.OOO += r.Stats.OOOSegments
		t.Acks += r.Stats.AcksSent
	}
	for _, snd := range w.snds {
		t.Retrans += snd.Stats.RetransPackets
	}
	if r := w.msgRcv; r != nil {
		t.Bytes += r.Delivered() * msgt.RecordSize
		t.Segs += r.Stats.SegmentsIn
		t.OOO += r.Stats.OOOSegments
		t.Retrans += w.msgSnd.Stats.Retransmits
	}
	for _, g := range w.gens {
		t.Generated += g.Generated
		t.Shed += g.Shed
	}
	rx := w.rx
	if h := w.host; h != nil {
		rx = h.RX
		t.Juggler = h.JugglerStats()
		if h.CT != nil {
			t.CT = h.CT.Stats
		}
		t.RXUtil, t.AppUtil = h.CPU.RX.Utilization(), h.CPU.App.Utilization()
		for _, c := range h.CPU.RXCores() {
			t.RXMaxUtil = max(t.RXMaxUtil, c.Utilization())
		}
	}
	for i := 0; rx != nil && i < rx.NumQueues(); i++ {
		t.Offload.Add(rx.Offload(i).Counters())
	}
	return t
}

// sub subtracts b from a field by field, descending into nested structs;
// float64 gauges keep a's value.
func sub(a, b reflect.Value) {
	for i := range a.NumField() {
		switch f := a.Field(i); f.Kind() {
		case reflect.Struct:
			sub(f, b.Field(i))
		case reflect.Float64:
		default:
			f.SetInt(f.Int() - b.Field(i).Int())
		}
	}
}

// tput is the goodput over the window in bit/s.
func (t tally) tput() float64 { return float64(units.Throughput(t.Bytes, t.Elapsed)) }

// perSec is n per second of the window.
func (t tally) perSec(n int64) float64 { return float64(n) / t.Elapsed.Seconds() }

// frac is n/d, or 0 when d is not positive: out-of-order shares
// (frac(t.OOO, t.Segs)) and batching extents (frac(t.Offload.Packets,
// t.Offload.Segments)).
func frac(n, d int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}
