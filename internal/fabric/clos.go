package fabric

import (
	"fmt"
	"time"

	"juggler/internal/sim"
	"juggler/internal/units"
)

// ClosConfig describes a two-stage Clos fabric in the style of Figure 19:
// ToR switches at the leaf, spine ("Stage 2") switches above, every ToR
// connected to every spine by one uplink.
type ClosConfig struct {
	// NumToRs and NumSpines give the switch counts. The paper's testbeds
	// use 2 spines ("two uplinks from each of the ToR switches").
	NumToRs   int
	NumSpines int

	// LinkRate applies to host links and fabric links alike (40G testbed).
	LinkRate units.BitRate

	// Prop is the per-link propagation delay (a few hundred ns per hop in
	// a datacenter).
	Prop time.Duration

	// QueueBytes bounds each egress queue (0 = unbounded).
	QueueBytes int

	// MarkBytes enables DCTCP-style ECN marking above the threshold
	// (0 = no marking).
	MarkBytes int

	// Priority, when true, gives fabric ports two-level strict-priority
	// queues (the Figure 17 bandwidth-guarantee setup).
	Priority bool

	// UplinkLB is the load-balancing policy applied at ToR uplink groups.
	// nil = ECMP by flow hash.
	UplinkLB Picker
}

// Clos is a constructed two-stage Clos fabric. Hosts are attached to ToRs
// with AttachHost, which allocates an address and wires routes through the
// whole fabric.
type Clos struct {
	cfg    ClosConfig
	sim    *sim.Sim
	ToRs   []*Switch
	Spines []*Switch

	// spineToTor[s][t] is spine s's egress port toward ToR t.
	spineToTor [][]*Port
	// torToSpine[t][s] is ToR t's uplink port toward spine s.
	torToSpine [][]*Port

	hosts   map[uint32]int // ip -> tor
	nextIdx int
}

// NewClos builds the switches and inter-switch links.
func NewClos(s *sim.Sim, cfg ClosConfig) *Clos {
	if cfg.NumToRs < 1 || cfg.NumSpines < 1 {
		panic("fabric: Clos needs at least one ToR and one spine")
	}
	if cfg.LinkRate <= 0 {
		panic("fabric: Clos needs a positive link rate")
	}
	c := &Clos{cfg: cfg, sim: s, hosts: map[uint32]int{}}
	for t := 0; t < cfg.NumToRs; t++ {
		sw := NewSwitch(s, fmt.Sprintf("tor%d", t))
		sw.LB = cfg.UplinkLB
		c.ToRs = append(c.ToRs, sw)
	}
	for sp := 0; sp < cfg.NumSpines; sp++ {
		c.Spines = append(c.Spines, NewSwitch(s, fmt.Sprintf("spine%d", sp)))
	}
	c.torToSpine = make([][]*Port, cfg.NumToRs)
	c.spineToTor = make([][]*Port, cfg.NumSpines)
	for sp := range c.Spines {
		c.spineToTor[sp] = make([]*Port, cfg.NumToRs)
	}
	for t := range c.ToRs {
		c.torToSpine[t] = make([]*Port, cfg.NumSpines)
		for sp := range c.Spines {
			up := NewPort(s, fmt.Sprintf("tor%d->spine%d", t, sp),
				cfg.LinkRate, cfg.Prop, c.newQueue(), c.Spines[sp])
			c.torToSpine[t][sp] = up
			down := NewPort(s, fmt.Sprintf("spine%d->tor%d", sp, t),
				cfg.LinkRate, cfg.Prop, c.newQueue(), c.ToRs[t])
			c.spineToTor[sp][t] = down
		}
	}
	return c
}

func (c *Clos) newQueue() Queue {
	if c.cfg.Priority {
		return NewStrictPriority(c.cfg.QueueBytes, c.cfg.MarkBytes)
	}
	if c.cfg.MarkBytes > 0 {
		return NewECN(c.cfg.QueueBytes, c.cfg.MarkBytes)
	}
	return NewDropTail(c.cfg.QueueBytes)
}

// hostIPBase keeps host addresses clear of the zero value.
const hostIPBase = 0x0a000000

// AttachHost connects a host's receive sink to ToR tor. It returns the
// allocated host address and the Sink into which the host's NIC should
// transmit (the ToR switch). Routes to the new address are installed in the
// whole fabric.
func (c *Clos) AttachHost(tor int, rx Sink) (ip uint32, egress Sink) {
	if tor < 0 || tor >= len(c.ToRs) {
		panic("fabric: tor index out of range")
	}
	c.nextIdx++
	ip = hostIPBase + uint32(tor)<<12 + uint32(c.nextIdx)
	c.hosts[ip] = tor

	// ToR -> host downlink.
	down := NewPort(c.sim, fmt.Sprintf("tor%d->host%x", tor, ip),
		c.cfg.LinkRate, c.cfg.Prop, c.newQueue(), rx)
	c.ToRs[tor].AddRoute(ip, down)

	// Every spine routes the address toward its ToR.
	for sp := range c.Spines {
		c.Spines[sp].AddRoute(ip, c.spineToTor[sp][tor])
	}
	// Every other ToR routes the address up its uplink group.
	for t := range c.ToRs {
		if t == tor {
			continue
		}
		c.ToRs[t].AddRoute(ip, c.torToSpine[t]...)
	}
	return ip, c.ToRs[tor]
}

// UplinkPorts returns ToR t's uplink ports (for load/occupancy stats).
func (c *Clos) UplinkPorts(t int) []*Port { return c.torToSpine[t] }

// DownlinkPort returns the ToR->host port serving ip (nil when unknown).
func (c *Clos) DownlinkPort(ip uint32) *Port {
	tor, ok := c.hosts[ip]
	if !ok {
		return nil
	}
	ports := c.ToRs[tor].Ports(ip)
	if len(ports) == 0 {
		return nil
	}
	return ports[0]
}
