package flowpath

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
	"repro/internal/topo"
)

// pingOK runs one ARP-initiated ping exchange and reports the answered
// count.
func pingOK(t *testing.T, built *topo.Built, a, b string, pings int, spacing time.Duration) int {
	t.Helper()
	ha, hb := built.Host(a), built.Host(b)
	answered := 0
	built.Engine.At(built.Now(), func() {
		ha.PingSeries(hb.IP(), pings, 56, spacing, time.Second, func(rs []host.PingResult) {
			for _, r := range rs {
				if r.Err == nil {
					answered++
				}
			}
		})
	})
	built.RunFor(time.Duration(pings)*spacing + 3*time.Second)
	return answered
}

// TestFlowPathDeliversAndKeysPerPair pins the protocol's basic shape on a
// ring: an ARP-initiated conversation delivers, the winning path's
// bridges hold both directed pair entries, and bridges off the path hold
// no confirmed state once the discovery race window has expired — the
// table-size trade-off the scalability study defines Flow-Path by.
func TestFlowPathDeliversAndKeysPerPair(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoFlowPath, 1), 5)
	if got := pingOK(t, built, "H1", "H3", 3, 10*time.Millisecond); got != 3 {
		t.Fatalf("answered %d of 3 pings", got)
	}

	a, b := built.Host("H1").MAC(), built.Host("H3").MAC()
	now := built.Now()
	onPath, confirmed := 0, 0
	for _, br := range built.Bridges {
		fb := br.(*Bridge)
		_, fwd := fb.FlowNextHop(a, b, now)
		_, rev := fb.FlowNextHop(b, a, now)
		if fwd != rev {
			t.Fatalf("bridge %s holds asymmetric pair state (fwd=%v rev=%v)", br.Name(), fwd, rev)
		}
		if fwd {
			onPath++
			confirmed += len(fb.Pairs().Snapshot(now))
		}
	}
	// H1 and H3 are two hops apart either way around the 5-ring: the
	// winning path crosses 3 bridges, each holding exactly the 2 directed
	// entries of this pair.
	if onPath != 3 {
		t.Fatalf("pair state on %d bridges, want 3 (one path, nowhere else)", onPath)
	}
	if confirmed != 6 {
		t.Fatalf("%d pair entries across the path, want 6 (2 per hop)", confirmed)
	}

	// Let the race window close: transient host locks must be gone
	// everywhere (no bridge holds foreign stations), while the speakers'
	// edge bridges durably remember their own attached stations.
	built.RunFor(time.Second)
	now = built.Now()
	for _, br := range built.Bridges {
		fb := br.(*Bridge)
		own := built.Host("H" + br.Name()[1:]).MAC() // S<i> hosts H<i>
		snap := fb.Hosts().Snapshot(now)
		for k := range snap {
			if k.Hi != own.Uint64() {
				t.Fatalf("bridge %s still holds foreign host %v after the race window", br.Name(), layers.MACFromUint64(k.Hi))
			}
		}
		if (br.Name() == "S1" || br.Name() == "S3") && len(snap) != 1 {
			t.Fatalf("edge bridge %s forgot its own station (snapshot %v)", br.Name(), snap)
		}
	}
}

// TestFlowPathWalkSymmetry walks the pair entries edge to edge in both
// directions: §2.1.2's symmetric-path property holds per pair.
func TestFlowPathWalkSymmetry(t *testing.T) {
	built := topo.Grid(topo.DefaultOptions(ProtoFlowPath, 3), 3, 3)
	if got := pingOK(t, built, "H1", "H4", 2, 10*time.Millisecond); got != 2 {
		t.Fatalf("answered %d of 2 pings", got)
	}
	a, b := built.Host("H1"), built.Host("H4")
	now := built.Now()
	walk := func(from *host.Host, dst *host.Host) []string {
		var chain []string
		cur := from.Port().Peer().Node()
		for steps := 0; steps <= len(built.Bridges); steps++ {
			fb, ok := cur.(*Bridge)
			if !ok {
				return chain // reached a host
			}
			chain = append(chain, fb.Name())
			p, ok := fb.FlowNextHop(from.MAC(), dst.MAC(), now)
			if !ok {
				t.Fatalf("walk %s->%s dead-ends at %s", from.Name(), dst.Name(), fb.Name())
			}
			cur = p.Peer().Node()
		}
		t.Fatalf("walk %s->%s did not terminate", from.Name(), dst.Name())
		return nil
	}
	toB := walk(a, b)
	toA := walk(b, a)
	if len(toB) != len(toA) {
		t.Fatalf("paths differ in length: %v vs %v", toB, toA)
	}
	for i := range toB {
		if toB[i] != toA[len(toA)-1-i] {
			t.Fatalf("path %v is not the reverse of %v", toB, toA)
		}
	}
}

// TestFlowPathRepairsWarmConversation wipes a bridge mid-path (total
// state loss, link bounce) and probes again WITHOUT flushing ARP caches:
// the pair miss at the restarted bridge must buffer, flood a pair
// PathRequest answered from the destination's durable edge entry, and
// unblock the conversation — Flow-Path's §2.1.4 analog.
func TestFlowPathRepairsWarmConversation(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoFlowPath, 2), 5)
	if got := pingOK(t, built, "H1", "H3", 2, 10*time.Millisecond); got != 2 {
		t.Fatalf("establishment failed")
	}

	// Restart every bridge holding pair state except the endpoints' edge
	// bridges, so the old path is guaranteed gone.
	a, b := built.Host("H1").MAC(), built.Host("H3").MAC()
	now := built.Now()
	restarted := 0
	built.Engine.At(built.Now(), func() {
		for _, br := range built.Bridges {
			fb := br.(*Bridge)
			if br.Name() == "S1" || br.Name() == "S3" {
				continue
			}
			if _, ok := fb.FlowNextHop(a, b, now); ok {
				fb.Restart()
				restarted++
			}
		}
	})
	built.RunFor(50 * time.Millisecond)
	if restarted == 0 {
		t.Fatal("no mid-path bridge found to restart")
	}

	// Warm probes: spacing wider than the lock window so repair guards
	// can expire between probes (same reasoning as the scenario engine's
	// warm wave).
	if got := pingOK(t, built, "H1", "H3", 4, 250*time.Millisecond); got < 1 {
		t.Fatalf("warm conversation stayed blocked after restart (answered %d)", got)
	}

	var repairs uint64
	for _, br := range built.Bridges {
		repairs += br.(*Bridge).Stats().RepairsStarted
	}
	if repairs == 0 {
		t.Fatal("conversation recovered without any pair repair — test is not exercising the machinery")
	}
}

// TestFlowPathPairJunkKeyGuard: Flow-Path's pair writes reject the halves
// ARP-Path's LockKey rejects — multicast/broadcast and the zero MAC — so
// a junk pair never pins a slot, while TCP-Path's connection table
// accepts zero halves as legal 4-tuple encodings.
func TestFlowPathPairJunkKeyGuard(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := New(net, "S1", 1, DefaultConfig())
	tp := NewTCPPath(net, "S2", 2, DefaultTCPConfig())
	port := net.Connect(b, tp, netsim.DefaultLinkConfig()).A()
	bcast := layers.BroadcastMAC.Uint64()
	mcast := layers.MAC{0x01, 0x00, 0x5E, 0, 0, 1}.Uint64()
	good := layers.HostMAC(1).Uint64()

	for _, k := range []tables.Key{
		{Hi: bcast, Lo: good}, // broadcast source half
		{Hi: good, Lo: bcast}, // broadcast destination half
		{Hi: mcast, Lo: good},
		{Hi: good, Lo: mcast},
		{Hi: 0, Lo: good}, // zero MAC halves
		{Hi: good, Lo: 0},
	} {
		b.learnPair(k, port, 0)
		if _, ok := b.Pairs().Get(k, 0); ok {
			t.Fatalf("junk pair %x/%x was admitted to the pair table", k.Hi, k.Lo)
		}
	}
	if b.Pairs().Len() != 0 || b.Pairs().Entries() != 0 {
		t.Fatalf("junk keys pinned %d entries (%d resident)", b.Pairs().Entries(), b.Pairs().Len())
	}
	b.learnPair(pairOf(good, layers.HostMAC(2).Uint64()), port, 0)
	if b.Pairs().Len() != 1 {
		t.Fatal("legitimate MAC pair rejected")
	}

	conn := tables.Key{Hi: 0, Lo: 443}
	tp.Conns().Learn(conn, port, 0)
	if _, ok := tp.Conns().Get(conn, 0); !ok {
		t.Fatal("connection table rejected a zero half")
	}
}
