// Package bridge provides the chassis shared by every bridge protocol in
// this repository (ARP-Path, 802.1D STP, plain learning). The chassis owns
// the ports, gives the bridge a MAC identity, floods frames
// deterministically, and — when enabled — runs the HELLO neighbour
// discovery that lets ARP-Path bridges tell trunk (bridge-facing) ports
// from edge (host-facing) ports without configuring hosts (DESIGN.md §2).
package bridge

import (
	"math/rand"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Protocol is the per-frame logic a concrete bridge plugs into its Chassis.
// All callbacks run on the simulation goroutine.
type Protocol interface {
	// OnFrame handles a received frame that the chassis did not consume
	// (everything except HELLOs). The frame follows the netsim borrow
	// contract: valid until return, Retain to keep, and its FrameView is
	// already decoded — protocols should not re-parse the headers.
	OnFrame(in *netsim.Port, f *netsim.Frame)
	// OnPortStatus reports a link transition after the chassis has updated
	// its own bookkeeping.
	OnPortStatus(p *netsim.Port, up bool)
	// OnStart runs once when the bridge is started, before any traffic.
	OnStart()
}

// Chassis implements netsim.Node on behalf of a bridge protocol.
type Chassis struct {
	net   *netsim.Network
	name  string
	numID int
	mac   layers.MAC
	proto Protocol

	ports []*netsim.Port
	// nbrs is indexed by Port.Index(), parallel to ports: what HELLOs
	// taught us about each port's far side.
	nbrs []neighbor

	// HelloEnabled turns on neighbour discovery. ARP-Path bridges enable
	// it; the STP and learning baselines do not need it.
	HelloEnabled bool

	sched *sim.Proc
	rng   *rand.Rand
	stats ChassisStats
}

// neighbor is one port's HELLO-learned state. trunk is the presence flag:
// bridge ID 0 is a legal identifier, so it cannot double as "unknown".
type neighbor struct {
	id    uint64
	trunk bool
}

// ChassisStats counts chassis-level events.
type ChassisStats struct {
	HellosSent     uint64
	HellosReceived uint64
	Flooded        uint64 // frames flooded by FloodExcept
}

// NewChassis builds a chassis for the named bridge. numID seeds the bridge
// MAC (layers.BridgeMAC) and the PathCtl bridge identifier.
func NewChassis(net *netsim.Network, name string, numID int, proto Protocol) *Chassis {
	return &Chassis{
		net:   net,
		name:  name,
		numID: numID,
		mac:   layers.BridgeMAC(numID),
		proto: proto,
	}
}

// Name implements netsim.Node.
func (c *Chassis) Name() string { return c.name }

// MAC returns the bridge's own address (source of HELLO/PathFail frames).
func (c *Chassis) MAC() layers.MAC { return c.mac }

// NumID returns the numeric bridge identifier.
func (c *Chassis) NumID() int { return c.numID }

// Net returns the owning network.
func (c *Chassis) Net() *netsim.Network { return c.net }

// Sched returns the bridge's scheduling identity: every timer and event a
// bridge protocol creates must go through it so the event order stays
// independent of how the fabric is sharded (sim.Proc). Resolved lazily —
// the topology builder registers the bridge with the network after the
// chassis is constructed.
func (c *Chassis) Sched() *sim.Proc {
	if c.sched == nil {
		c.sched = c.net.Proc(c.name)
	}
	return c.sched
}

// After schedules fn d from now under the bridge's identity.
func (c *Chassis) After(d time.Duration, fn func()) *sim.Timer {
	return c.Sched().After(d, fn)
}

// Rand returns the bridge's own deterministic random source, seeded from
// the network seed and the bridge id. Per-bridge streams (rather than the
// engine's) keep draws a function of this bridge's history alone, which
// the sharded engine's determinism depends on.
func (c *Chassis) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.net.Seed() ^ (int64(c.numID)+1)*0x5851F42D4C957F2D))
	}
	return c.rng
}

// Now returns the current virtual time as this bridge observes it: its
// own shard's clock. (The network's control clock only advances at
// barriers, so reading it from inside a parallel window would freeze
// every lazy expiry check for the window's duration.)
func (c *Chassis) Now() time.Duration { return c.Sched().Now() }

// Stats returns a snapshot of the chassis counters.
func (c *Chassis) Stats() ChassisStats { return c.stats }

// AttachPort implements netsim.Node.
func (c *Chassis) AttachPort(p *netsim.Port) {
	c.ports = append(c.ports, p)
	c.nbrs = append(c.nbrs, neighbor{})
}

// Ports returns the bridge's ports in cabling order.
func (c *Chassis) Ports() []*netsim.Port { return c.ports }

// Port returns the i-th port.
func (c *Chassis) Port(i int) *netsim.Port { return c.ports[i] }

// Start announces the bridge: it runs the protocol's OnStart and sends the
// initial HELLO burst. Call once after cabling, before running the
// simulation (the topology builder does this).
func (c *Chassis) Start() {
	c.Sched().At(c.net.Now(), func() {
		c.proto.OnStart()
		if c.HelloEnabled {
			for _, p := range c.ports {
				c.sendHello(p)
			}
		}
	})
}

// Restart models a chassis power-cycle: everything learned from the wire
// (trunk/edge classification, neighbour identities) is forgotten. It does
// not re-HELLO by itself — a real reboot drops carrier, and the caller's
// link bounce re-sends HELLOs from both ends via PortStatusChanged, which
// is the only way the *peer* learns anything happened (a one-sided burst
// would be dropped by the bounce anyway). Protocol-level state loss is
// the protocol's job — see core.Bridge.Restart, which calls this before
// bouncing its links.
func (c *Chassis) Restart() {
	clear(c.nbrs)
}

// IsTrunk reports whether p faces another bridge (a HELLO was seen since
// the last down transition). Meaningless unless HelloEnabled.
func (c *Chassis) IsTrunk(p *netsim.Port) bool { return c.nbrs[p.Index()].trunk }

// IsEdge reports whether p faces a host.
func (c *Chassis) IsEdge(p *netsim.Port) bool { return !c.IsTrunk(p) }

// Neighbor returns the bridge ID learned from HELLOs on trunk port p.
// Two ports with the same neighbor are parallel links to one bridge —
// forwarding a frame "back" over a parallel link is still a hairpin.
//
//fabric:hotpath
func (c *Chassis) Neighbor(p *netsim.Port) (uint64, bool) {
	n := c.nbrs[p.Index()]
	return n.id, n.trunk
}

// SameNeighbor reports whether two ports lead to the same neighbouring
// bridge (the same port, or parallel trunks, which a port comparison
// alone cannot see on multigraphs). Every protocol's hairpin rule goes
// through this one definition.
//
//fabric:hotpath
func (c *Chassis) SameNeighbor(p, q *netsim.Port) bool {
	if p == q {
		return true
	}
	pn, ok1 := c.Neighbor(p)
	qn, ok2 := c.Neighbor(q)
	return ok1 && ok2 && pn == qn
}

// HandleFrame implements netsim.Node: HELLOs are consumed here, everything
// else goes to the protocol. The frame's pre-decoded view makes the HELLO
// check a pair of field reads instead of a parse.
//
//fabric:hotpath
func (c *Chassis) HandleFrame(p *netsim.Port, f *netsim.Frame) {
	if v := f.View(); v.IsHello() {
		c.stats.HellosReceived++
		c.nbrs[p.Index()] = neighbor{id: v.Ctl.BridgeID, trunk: true}
		return
	}
	c.proto.OnFrame(p, f)
}

// PortStatusChanged implements netsim.Node.
func (c *Chassis) PortStatusChanged(p *netsim.Port, up bool) {
	if !up {
		// The neighbour may be replaced while the link is down; rediscover.
		c.nbrs[p.Index()] = neighbor{}
	} else if c.HelloEnabled {
		c.sendHello(p)
	}
	c.proto.OnPortStatus(p, up)
}

// sendHello emits one HELLO on p.
func (c *Chassis) sendHello(p *netsim.Port) {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.PathCtlMulticast, Src: c.mac, EtherType: layers.EtherTypePathCtl},
		&layers.PathCtl{Type: layers.PathCtlHello, BridgeID: uint64(c.numID)},
	)
	if err != nil {
		panic("bridge: cannot serialize HELLO: " + err.Error())
	}
	c.stats.HellosSent++
	p.Send(frame)
}

// FloodExcept sends f on every up port except in (which may be nil to
// flood everywhere) without copying — every egress shares the one pooled
// buffer. Ports transmit in cabling order, keeping the race between
// flooded copies deterministic for a given topology and seed.
//
//fabric:hotpath
func (c *Chassis) FloodExcept(in *netsim.Port, f *netsim.Frame) {
	for _, p := range c.ports {
		if p != in && p.Up() {
			p.SendFrame(f)
			c.stats.Flooded++
		}
	}
}

// FloodBytesExcept wraps a locally built frame in one pooled buffer and
// floods it (the origination-side counterpart of FloodExcept).
func (c *Chassis) FloodBytesExcept(in *netsim.Port, frame []byte) {
	f := c.net.NewFrame(frame)
	c.FloodExcept(in, f)
	f.Release()
}
