// Package learning implements the classic transparent learning switch: a
// bridge that learns source MACs into a filtering database with aging and
// floods unknown destinations. It is both a baseline on its own (safe
// only on loop-free topologies) and the forwarding core the STP baseline
// gates with port states.
//
// The filtering database is a core.LockTable used in learned-only mode:
// the switch only ever learns, so no entry is race-guarded and every
// entry is evictable, and the learned timeout is the aging time.
package learning

import (
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// DefaultAging matches 802.1D's default filtering-database aging time.
const DefaultAging = 300 * time.Second

// Config tunes a learning switch. It exists mostly so the protocol
// registry can carry learning-switch settings the same way it carries
// ARP-Path and STP ones.
type Config struct {
	// Aging is the filtering-database aging time.
	Aging time.Duration
	// TableCapacity bounds the filtering database (0 = unbounded). A
	// bound requires TablePolicy. See DESIGN.md §12.
	TableCapacity int
	// TablePolicy selects the eviction policy for a bounded table:
	// "lru" or "clock" ("" / "timeout" is the unbounded baseline).
	TablePolicy string
}

// DefaultConfig returns the standard aging time.
func DefaultConfig() Config { return Config{Aging: DefaultAging} }

// WithDefaults fills unset (zero) fields field-wise.
func (c Config) WithDefaults() Config {
	if c.Aging == 0 {
		c.Aging = DefaultAging
	}
	return c
}

// Stats counts forwarding decisions of a learning switch.
type Stats struct {
	Forwarded      uint64 // unicast hits sent out one port
	FloodedUnknown uint64 // unknown unicast floods
	FloodedGroup   uint64 // broadcast/multicast floods
	Filtered       uint64 // frames whose FIB entry pointed at the ingress port
}

// Switch is a plain IEEE 802.1D-style transparent learning bridge with no
// loop protection. On loop-free topologies it behaves like the demo's NIC
// bridges with STP converged; on looped topologies it melts down — which
// the tests demonstrate on purpose.
type Switch struct {
	*bridge.Chassis
	fib   *core.LockTable
	stats Stats
}

// New creates a learning switch named name with the default aging time.
func New(net *netsim.Network, name string, numID int) *Switch {
	return NewWithConfig(net, name, numID, DefaultConfig())
}

// NewWithConfig creates a learning switch with an explicit configuration.
func NewWithConfig(net *netsim.Network, name string, numID int, cfg Config) *Switch {
	cfg = cfg.WithDefaults()
	bound, err := tables.ParseConfig(cfg.TableCapacity, cfg.TablePolicy)
	if err != nil {
		panic("learning: " + err.Error())
	}
	s := &Switch{}
	s.Chassis = bridge.NewChassis(net, name, numID, s)
	// Learned-only: the lock timeout is never used, so it is set to the
	// aging time too.
	s.fib = core.NewBoundedLockTable(cfg.Aging, cfg.Aging, bound)
	return s
}

// FIB exposes the forwarding table (tests and the STP baseline reuse it).
func (s *Switch) FIB() *core.LockTable { return s.fib }

// Stats returns a snapshot of the forwarding counters.
func (s *Switch) ForwardingStats() Stats { return s.stats }

// OnStart implements bridge.Protocol.
func (s *Switch) OnStart() {}

// OnPortStatus implements bridge.Protocol: dead ports forget their hosts.
func (s *Switch) OnPortStatus(p *netsim.Port, up bool) {
	if !up {
		s.fib.FlushPort(p)
	}
}

// OnFrame implements bridge.Protocol: the whole decision runs on the
// frame's pre-decoded view and packed keys; nothing is parsed or copied.
//
//fabric:hotpath
func (s *Switch) OnFrame(in *netsim.Port, f *netsim.Frame) {
	now := s.Now()
	v := f.View()
	s.fib.LearnKey(v.SrcKey, in, now)
	if v.IsMulticast() {
		s.stats.FloodedGroup++
		s.FloodExcept(in, f)
		return
	}
	e, ok := s.fib.GetKey(v.DstKey, now)
	switch {
	case !ok:
		s.stats.FloodedUnknown++
		s.FloodExcept(in, f)
	case e.Port == in:
		// Destination is on the segment the frame came from: filter.
		s.stats.Filtered++
	default:
		s.stats.Forwarded++
		e.Port.SendFrame(f)
	}
}

var _ bridge.Protocol = (*Switch)(nil)
var _ netsim.Node = (*Switch)(nil)
