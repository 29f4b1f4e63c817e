package experiments

import (
	"time"

	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
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

// rxTotals is what a set of TCP receivers has taken in: delivered bytes,
// segments, out-of-order segments and ACKs sent. Two snapshots bracket a
// measurement window.
type rxTotals struct{ bytes, segs, ooo, acks int64 }

// rxTotalsOf snapshots the receivers' running counts.
func rxTotalsOf(rcvs ...*tcp.Receiver) (t rxTotals) {
	for _, r := range rcvs {
		t.bytes += r.Delivered()
		t.segs += r.Stats.SegmentsIn
		t.ooo += r.Stats.OOOSegments
		t.acks += r.Stats.AcksSent
	}
	return t
}

// since returns the counts accrued after the earlier snapshot t0.
func (t rxTotals) since(t0 rxTotals) rxTotals {
	return rxTotals{t.bytes - t0.bytes, t.segs - t0.segs, t.ooo - t0.ooo, t.acks - t0.acks}
}

// oooFrac is the share of segments that arrived out of order (0 when
// none arrived).
func (t rxTotals) oooFrac() float64 {
	if t.segs <= 0 {
		return 0
	}
	return float64(t.ooo) / float64(t.segs)
}
