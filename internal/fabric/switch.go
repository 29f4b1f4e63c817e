package fabric

import (
	"fmt"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// Picker chooses among n equivalent uplinks for a packet. Implementations
// live in internal/lb: ECMP (flow hash), per-packet, per-TSO.
type Picker interface {
	Pick(p *packet.Packet, n int) int
}

// Switch is an output-queued switch: Deliver routes the packet to an
// egress port chosen by the routing table and, for multi-uplink
// destinations, the load-balancing Picker.
type Switch struct {
	Name string
	sim  *sim.Sim

	// routes maps destination IP to the candidate egress ports.
	routes map[uint32][]*Port

	// cache is a direct-mapped front for routes, indexed by the low bits
	// of the destination IP: Deliver runs once per packet per hop and a
	// switch forwards to a handful of destinations at a time, so the map
	// lookup is paid per route change and not per packet. A slot with a
	// nil group is empty; AddRoute clears every slot.
	cache [routeCacheSize]routeSlot

	// LB picks among multiple candidate ports; nil falls back to ECMP-like
	// hashing with salt 0.
	LB Picker

	// Unrouted counts packets with no matching route (dropped).
	Unrouted int64
}

// routeCacheSize is a power of two; host addresses differ in their low
// bits (Clos.AttachHost numbers them consecutively).
const routeCacheSize = 8

type routeSlot struct {
	ip    uint32
	group []*Port
}

// NewSwitch creates an empty switch.
func NewSwitch(s *sim.Sim, name string) *Switch {
	return &Switch{Name: name, sim: s, routes: map[uint32][]*Port{}}
}

// AddRoute appends candidate egress ports for the destination IP. Calling
// it repeatedly for the same destination accumulates an ECMP group.
func (sw *Switch) AddRoute(dstIP uint32, ports ...*Port) {
	sw.routes[dstIP] = append(sw.routes[dstIP], ports...)
	sw.cache = [routeCacheSize]routeSlot{}
}

// Ports returns the ECMP group for a destination (nil when unknown).
func (sw *Switch) Ports(dstIP uint32) []*Port { return sw.routes[dstIP] }

// Deliver implements Sink.
func (sw *Switch) Deliver(p *packet.Packet) {
	dst := p.Flow.DstIP
	slot := &sw.cache[dst&(routeCacheSize-1)]
	group := slot.group
	if group == nil || slot.ip != dst {
		group = sw.routes[dst]
		if len(group) == 0 {
			sw.Unrouted++
			return
		}
		slot.ip, slot.group = dst, group
	}
	idx := 0
	if len(group) > 1 {
		if sw.LB != nil {
			idx = sw.LB.Pick(p, len(group))
		} else {
			idx = int(p.Flow.Hash(0)) % len(group)
		}
		if idx < 0 || idx >= len(group) {
			panic(fmt.Sprintf("fabric: picker returned %d of %d", idx, len(group)))
		}
	}
	group[idx].Send(p)
}
