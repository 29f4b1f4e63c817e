package juggler

import (
	"strings"
	"testing"
	"time"

	"juggler/internal/lb"
	"juggler/internal/sim"
)

func TestDefaultTuningRuleOfThumb(t *testing.T) {
	// §5.2.1 rule of thumb: 52us at 10G, 13us at 40G.
	t10 := DefaultTuning(Rate10G)
	if t10.InseqTimeout < 50*time.Microsecond || t10.InseqTimeout > 55*time.Microsecond {
		t.Fatalf("10G inseq timeout = %v, want ~52us", t10.InseqTimeout)
	}
	t40 := DefaultTuning(Rate40G)
	if t40.InseqTimeout < 12*time.Microsecond || t40.InseqTimeout > 14*time.Microsecond {
		t.Fatalf("40G inseq timeout = %v, want ~13us", t40.InseqTimeout)
	}
}

func TestReorderPairHeadline(t *testing.T) {
	// The paper's headline result through the public API: with severe
	// reordering, vanilla loses throughput while Juggler holds line rate.
	run := func(stack Stack) Rate {
		tun := DefaultTuning(Rate10G)
		tun.OfoTimeout = 700 * time.Microsecond
		p := NewReorderPair(ReorderPairConfig{
			Rate: Rate10G, ReorderDelay: 500 * time.Microsecond,
			Receiver: stack, Tuning: tun, Seed: 42,
		})
		f := p.AddBulkFlow(0)
		p.Run(50 * time.Millisecond)
		f.Throughput() // reset the measurement window
		p.Run(100 * time.Millisecond)
		return f.Throughput()
	}
	jug := run(StackJuggler)
	van := run(StackVanilla)
	if jug < Rate10G*85/100 {
		t.Fatalf("juggler throughput %v, want near line rate", jug)
	}
	if van > jug*3/4 {
		t.Fatalf("vanilla %v should be well below juggler %v", van, jug)
	}
}

func TestReorderPairStats(t *testing.T) {
	p := NewReorderPair(ReorderPairConfig{Rate: Rate10G, Receiver: StackJuggler})
	p.AddBulkFlow(0)
	p.Run(30 * time.Millisecond)
	st := p.ReceiverStats()
	if st.BatchingMTUs < 8 {
		t.Fatalf("batching = %.1f MTUs, expected strong merging in-order", st.BatchingMTUs)
	}
	if st.RXCoreUtil <= 0 || st.AppCoreUtil <= 0 {
		t.Fatal("CPU utilizations should be positive")
	}
	if st.SegmentsIn == 0 || st.AcksSent == 0 {
		t.Fatal("TCP counters should be populated")
	}
}

func TestRPCStreamThroughAPI(t *testing.T) {
	p := NewReorderPair(ReorderPairConfig{Rate: Rate10G, Receiver: StackJuggler})
	r := p.AddRPCStream()
	for i := 0; i < 10; i++ {
		d := time.Duration(i) * time.Millisecond
		p.At(d, func() { r.Send(10 << 10) })
	}
	p.Run(50 * time.Millisecond)
	if r.Completed() != 10 {
		t.Fatalf("completed = %d", r.Completed())
	}
	if r.LatencyMedian() <= 0 || r.LatencyMedian() > 5*time.Millisecond {
		t.Fatalf("median latency %v implausible", r.LatencyMedian())
	}
	if r.LatencyP99() < r.LatencyMedian() {
		t.Fatal("p99 < median")
	}
}

func TestClusterPerPacketLB(t *testing.T) {
	c := NewCluster(ClusterConfig{LB: PerPacket, Stack: StackJuggler, Seed: 7})
	a := c.AddHost(0)
	b := c.AddHost(1)
	f := c.ConnectBulk(a, b, FlowOptions{})
	c.Run(20 * time.Millisecond)
	if f.Delivered() == 0 {
		t.Fatal("no bytes delivered across the cluster")
	}
	if f.OOOFraction() > 0.05 {
		t.Fatalf("OOO fraction %.2f: Juggler should hide per-packet spraying", f.OOOFraction())
	}
}

func TestClusterGuarantee(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Spines: 1, PriorityQueues: true, Stack: StackJuggler,
		ECNThresholdBytes: 400 << 10, QueueBytes: 4 << 20, Seed: 3,
		Tuning: Tuning{OfoTimeout: 400 * time.Microsecond},
	})
	s1, s2 := c.AddHost(0), c.AddHost(0)
	r1, r2 := c.AddHost(1), c.AddHost(1)
	opt := FlowOptions{ECN: true, MaxWindow: 2 << 20}
	target := c.ConnectBulk(s1, r1, opt)
	for i := 0; i < 7; i++ {
		c.ConnectBulk(s2, r2, opt)
	}
	c.Run(300 * time.Millisecond) // converge to fair share (~5G)
	c.Guarantee(target, 20*Gbps)
	c.Run(400 * time.Millisecond)
	target.Throughput() // reset window
	c.Run(100 * time.Millisecond)
	got := target.Throughput()
	if got < 17*Gbps || got > 23*Gbps {
		t.Fatalf("guaranteed flow at %v, want ~20Gb/s", got)
	}
}

func TestExperimentRegistryThroughAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered: %v", len(ids), ids)
	}
	for _, want := range []string{"fig1", "fig9", "fig10", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig18", "fig20", "latency", "lossofo"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
	if RunExperiment("no-such-id", 1, true) != nil {
		t.Fatal("unknown experiment should return nil")
	}
	if DescribeExperiment("fig12") == "" {
		t.Fatal("description missing")
	}
}

func TestRunExperimentProducesReport(t *testing.T) {
	rep := RunExperiment("latency", 1, true)
	if rep == nil || len(rep.Rows) != 2 {
		t.Fatalf("latency report = %+v", rep)
	}
	var sb strings.Builder
	rep.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "latency") || !strings.Contains(out, "juggler") {
		t.Fatalf("report rendering wrong:\n%s", out)
	}
}

func TestStackAndPolicyStrings(t *testing.T) {
	if StackJuggler.String() != "juggler" || StackVanilla.String() != "vanilla" {
		t.Fatal("stack names wrong")
	}
	// NewCluster builds its uplink picker with lb.New(s, cfg.LB.String()).
	for p, want := range map[LoadBalancing]string{
		ECMP: lb.PolicyECMP, PerPacket: lb.PolicyPerPacket,
		PerTSO: lb.PolicyPerTSO, Flowlet: lb.PolicyFlowlet,
	} {
		if p.String() != want {
			t.Fatalf("policy %d named %q, want %q", p, p.String(), want)
		}
		if lb.New(sim.New(1), p.String()) == nil {
			t.Fatalf("lb.New rejects policy %q", p.String())
		}
	}
	if Rate40G.String() != "40Gb/s" {
		t.Fatalf("rate string = %q", Rate40G.String())
	}
}
