package juggler

import (
	"io"
	"time"

	"juggler/internal/bwguard"
	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/telemetry"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// ClusterConfig describes a two-stage Clos datacenter (Figure 19): ToRs at
// the leaf, spines above, each ToR connected to every spine.
type ClusterConfig struct {
	// ToRs and Spines give the switch counts (defaults 2 and 2).
	ToRs, Spines int
	// LinkRate applies to hosts and fabric alike (default 40G).
	LinkRate Rate
	// LB is the ToR-uplink load-balancing policy (default ECMP).
	LB LoadBalancing
	// QueueBytes bounds each fabric queue (default 2MB, 0 keeps default;
	// use -1 for unbounded).
	QueueBytes int
	// ECNThresholdBytes enables DCTCP-style marking above the threshold
	// (0 = no marking).
	ECNThresholdBytes int
	// PriorityQueues gives fabric ports two-level strict-priority queues
	// (required for bandwidth guarantees).
	PriorityQueues bool
	// Stack selects every host's offload implementation (default
	// StackJuggler).
	Stack Stack
	// Tuning tunes Juggler (zero = rate-appropriate defaults).
	Tuning Tuning
	// Seed drives all randomness (default 1).
	Seed int64
	// Telemetry enables the cross-layer observability sink; read the
	// exports back with WriteTrace / WritePcap / WriteMetrics.
	Telemetry bool
	// Fleet, when non-nil, attaches the fleet telemetry aggregator
	// (internal/telemetry/fleet): every host added afterwards gets a
	// rollup probe sampled on the fleet cadence, RPC completions feed
	// the fleet FCT sketch, and FleetReport returns the merged
	// cluster-health report. Use &fleet.Config{} for defaults.
	Fleet *fleet.Config
}

// Cluster is a running Clos simulation.
type Cluster struct {
	s     *sim.Sim
	tb    *testbed.ClosTestbed
	cfg   ClusterConfig
	fleet *fleet.Aggregator
}

// Node is one host in a Cluster.
type Node struct {
	host *testbed.Host
	c    *Cluster
}

// NewCluster builds the fabric; attach hosts with AddHost.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.ToRs == 0 {
		cfg.ToRs = 2
	}
	if cfg.Spines == 0 {
		cfg.Spines = 2
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = Rate40G
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = 2 * units.MB
	}
	if cfg.QueueBytes < 0 {
		cfg.QueueBytes = 0 // unbounded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Tuning == (Tuning{}) {
		cfg.Tuning = DefaultTuning(cfg.LinkRate)
	}
	s := sim.New(cfg.Seed)
	if cfg.Telemetry {
		telemetry.New(s, telemetry.Options{})
	}
	tb := testbed.NewClosTestbed(s, fabric.ClosConfig{
		NumToRs: cfg.ToRs, NumSpines: cfg.Spines,
		LinkRate:   units.BitRate(cfg.LinkRate),
		Prop:       200 * time.Nanosecond,
		QueueBytes: cfg.QueueBytes, MarkBytes: cfg.ECNThresholdBytes,
		Priority: cfg.PriorityQueues,
		UplinkLB: lb.New(s, cfg.LB.String()),
	})
	c := &Cluster{s: s, tb: tb, cfg: cfg}
	if cfg.Fleet != nil {
		c.fleet = fleet.NewAggregator(*cfg.Fleet)
	}
	return c
}

// AddHost attaches a host under ToR tor.
func (c *Cluster) AddHost(tor int) *Node {
	hostCfg := testbed.DefaultHostConfig(c.cfg.Stack)
	hostCfg.LinkRate = units.BitRate(c.cfg.LinkRate)
	hostCfg.Juggler = c.cfg.Tuning.coreConfig()
	h := c.tb.AddHost(tor, hostCfg)
	if c.fleet != nil {
		h.AttachFleetProbe(c.fleet, tor)
	}
	return &Node{host: h, c: c}
}

// FlowOptions tune one connection.
type FlowOptions struct {
	// Pace caps the flow's send rate (0 = unpaced).
	Pace Rate
	// ECN enables DCTCP-style congestion reaction (pair with the
	// cluster's ECNThresholdBytes).
	ECN bool
	// MaxWindow caps the congestion window in bytes (0 = 4MB default).
	MaxWindow int
}

// connect opens one connection from n to dst tuned by opt.
func (opt FlowOptions) connect(n, dst *Node) (*tcp.Sender, *tcp.Receiver) {
	return testbed.Connect(n.host, dst.host, tcp.SenderConfig{
		PaceRate: units.BitRate(opt.Pace), ECN: opt.ECN, MaxCwnd: opt.MaxWindow,
	})
}

// ConnectBulk opens an endless bulk flow from n to dst and starts it.
func (c *Cluster) ConnectBulk(n, dst *Node, opt FlowOptions) *Flow {
	snd, rcv := opt.connect(n, dst)
	snd.SetInfinite()
	snd.MaybeSend()
	return &Flow{snd: snd, rcv: rcv, s: c.s}
}

// ConnectRPC opens a persistent connection for RPC traffic.
func (c *Cluster) ConnectRPC(n, dst *Node, opt FlowOptions) *RPCStream {
	snd, rcv := opt.connect(n, dst)
	lat := stats.NewSampler(4096)
	rs := &RPCStream{stream: workload.NewRPCStream(c.s, snd, rcv, lat), snd: snd, lat: lat}
	if c.fleet != nil {
		rs.stream.OnLatency = func(d time.Duration) { c.fleet.ObserveFCT(int64(d)) }
	}
	return rs
}

// AddBackground injects Poisson cross traffic at the given average rate
// from a synthetic host under fromToR to a sink under toToR.
func (c *Cluster) AddBackground(fromToR, toToR int, rate Rate) {
	c.tb.AddBackgroundPair(fromToR, toToR, units.BitRate(rate))
}

// Guarantee attaches the §2.1 dynamic-priority controller to a flow: the
// sender marks packets high priority with an adaptive probability so the
// flow converges to the target rate. The cluster must use PriorityQueues,
// and the receiving stack must be reordering resilient for the guarantee
// to hold (the point of Figure 18).
func (c *Cluster) Guarantee(f *Flow, target Rate) {
	bwguard.Attach(c.s, bwguard.DefaultConfig(
		units.BitRate(target), units.BitRate(c.cfg.LinkRate)), f.snd)
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.s.RunFor(d) }

// Now returns the simulated time since start.
func (c *Cluster) Now() time.Duration { return time.Duration(c.s.Now()) }

// At schedules fn after d of simulated time.
func (c *Cluster) At(d time.Duration, fn func()) { c.s.Schedule(d, fn) }

// WriteTrace writes the run's flight recorder as Perfetto/Chrome
// trace-event JSON. No-op unless ClusterConfig.Telemetry is set.
func (c *Cluster) WriteTrace(w io.Writer) error {
	return telemetry.FromSim(c.s).WriteTrace(w)
}

// WritePcap writes the run's packet capture as a pcapng file.
func (c *Cluster) WritePcap(w io.Writer) error {
	return telemetry.FromSim(c.s).WritePcap(w)
}

// WriteMetrics writes the run's metric snapshot in Prometheus text format.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	return telemetry.FromSim(c.s).Reg().WriteProm(w)
}

// FleetReport stops fleet sampling, takes a final sample of every
// probe, and returns the merged cluster-health report. Returns nil
// unless ClusterConfig.Fleet was set.
func (c *Cluster) FleetReport() *fleet.Report {
	if c.fleet == nil {
		return nil
	}
	c.fleet.StopAll()
	return c.fleet.Report(c.Now())
}

// WriteFleetReport writes the fleet report as schema-validated,
// byte-stable JSON. No-op without ClusterConfig.Fleet.
func (c *Cluster) WriteFleetReport(w io.Writer) error {
	r := c.FleetReport()
	if r == nil {
		return nil
	}
	return r.WriteJSON(w)
}

// Stats summarizes a node's receive path.
func (n *Node) Stats() HostStats { return hostStats(n.host) }

// ResetCPUWindow restarts the node's CPU utilization measurement.
func (n *Node) ResetCPUWindow() { n.host.CPU.ResetWindows() }
