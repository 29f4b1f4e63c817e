package juggler

import (
	"strings"
	"testing"
	"time"

	"juggler/internal/replay"
)

func TestClusterDefaults(t *testing.T) {
	c := NewCluster(ClusterConfig{})
	a, b := c.AddHost(0), c.AddHost(1)
	f := c.ConnectBulk(a, b, FlowOptions{})
	c.Run(10 * time.Millisecond)
	if f.Delivered() == 0 {
		t.Fatal("default cluster should pass traffic")
	}
}

func TestClusterBackgroundTraffic(t *testing.T) {
	c := NewCluster(ClusterConfig{LB: PerPacket, Stack: StackJuggler, Seed: 5})
	a, b := c.AddHost(0), c.AddHost(1)
	c.AddBackground(0, 1, 10*Gbps)
	f := c.ConnectBulk(a, b, FlowOptions{})
	c.Run(30 * time.Millisecond)
	if f.Delivered() == 0 {
		t.Fatal("foreground flow should survive background load")
	}
	// Real background queueing: reordering happens at the fabric, yet the
	// juggler stack hides it.
	if f.OOOFraction() > 0.05 {
		t.Fatalf("OOO fraction %.3f under background load", f.OOOFraction())
	}
}

func TestClusterRPCAndPrioritizeTail(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Spines: 1, PriorityQueues: true, Stack: StackJuggler,
		Tuning: Tuning{OfoTimeout: 400 * time.Microsecond}, Seed: 9,
	})
	a, b := c.AddHost(0), c.AddHost(1)
	r := c.ConnectRPC(a, b, FlowOptions{})
	r.PrioritizeTail(1 << 20) // whole messages ride high priority
	for i := 0; i < 5; i++ {
		d := time.Duration(i) * time.Millisecond
		c.At(d, func() { r.Send(64 << 10) })
	}
	c.Run(50 * time.Millisecond)
	if r.Completed() != 5 {
		t.Fatalf("completed %d of 5", r.Completed())
	}
	r.PrioritizeTail(0) // restore static priority: still functional
	r.Send(64 << 10)
	c.Run(20 * time.Millisecond)
	if r.Completed() != 6 {
		t.Fatalf("completed %d of 6", r.Completed())
	}
}

func TestRPCClosedLoopThroughAPI(t *testing.T) {
	p := NewReorderPair(ReorderPairConfig{Rate: Rate10G, Receiver: StackJuggler})
	r := p.AddRPCStream()
	n := 0
	r.OnComplete(func() {
		n++
		if n < 20 {
			r.Send(10 << 10)
		}
	})
	r.Send(10 << 10)
	p.Run(100 * time.Millisecond)
	if r.Completed() != 20 {
		t.Fatalf("closed loop completed %d of 20", r.Completed())
	}
}

func TestTraceThroughAPI(t *testing.T) {
	p := NewReorderPair(ReorderPairConfig{
		Rate: Rate10G, ReorderDelay: 300 * time.Microsecond,
		Receiver: StackJuggler,
		Tuning:   Tuning{OfoTimeout: 500 * time.Microsecond},
	})
	p.EnableTrace(256)
	p.AddBulkFlow(0)
	p.Run(5 * time.Millisecond)
	var sb strings.Builder
	sum := p.DumpTrace(&sb)
	if !strings.Contains(sum, "flush=") {
		t.Fatalf("trace summary %q should report flushes", sum)
	}
	tr, err := replay.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("trace dump does not parse as a recorded run: %v", err)
	}
	flushes := 0
	for _, e := range tr.Events {
		if e.Op == "flush" && e.Cause != "" {
			flushes++
		}
	}
	if len(tr.Packets) != 0 || flushes == 0 {
		t.Fatalf("trace dump parsed to %d packets and %d flush decisions, want only ev lines with flushes",
			len(tr.Packets), flushes)
	}
}

func TestNodeStatsAndCPUWindow(t *testing.T) {
	c := NewCluster(ClusterConfig{Stack: StackJuggler, Seed: 2})
	a, b := c.AddHost(0), c.AddHost(1)
	c.ConnectBulk(a, b, FlowOptions{})
	c.Run(10 * time.Millisecond)
	b.ResetCPUWindow()
	c.Run(10 * time.Millisecond)
	st := b.Stats()
	if st.RXCoreUtil <= 0 || st.BatchingMTUs <= 1 {
		t.Fatalf("stats implausible: %+v", st)
	}
}
