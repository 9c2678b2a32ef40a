package core

import (
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
)

func TestLockTableGuard(t *testing.T) {
	net := netsim.NewNetwork(1)
	a, b := hostpkg.New(net, "a", 1), hostpkg.New(net, "b", 2)
	l := net.Connect(a, b, netsim.DefaultLinkConfig())
	tb := NewLockTable(100*time.Millisecond, time.Second)
	m := layers.HostMAC(1)

	// Guarding a learned entry re-arms the window without downgrading.
	tb.LearnKey(m.Uint64(), l.A(), 0)
	tb.GuardKey(m.Uint64(), 500*time.Millisecond)
	e, ok := tb.GetKey(m.Uint64(), 550*time.Millisecond)
	if !ok || e.State != StateLearned {
		t.Fatalf("entry after guard: %+v ok=%v", e, ok)
	}
	if !e.Guarded(550 * time.Millisecond) {
		t.Fatal("window not re-armed")
	}
	if e.Guarded(601 * time.Millisecond) {
		t.Fatal("window did not close")
	}
	// The learned lifetime must not shrink: still alive at 900ms.
	if _, ok := tb.GetKey(m.Uint64(), 900*time.Millisecond); !ok {
		t.Fatal("guard truncated the learned lifetime")
	}

	// Guarding near expiry extends life to at least the window's end.
	tb.LearnKey(m.Uint64(), l.A(), 0)
	tb.GuardKey(m.Uint64(), 990*time.Millisecond)
	if _, ok := tb.GetKey(m.Uint64(), 1050*time.Millisecond); !ok {
		t.Fatal("guard did not keep the entry alive through its window")
	}

	// Guarding a missing entry is a no-op.
	tb.DeleteKey(m.Uint64())
	tb.GuardKey(m.Uint64(), 0)
	if tb.Len() != 0 {
		t.Fatal("guard resurrected a deleted entry")
	}
}

// TestParallelLinkHairpinBlocked: with two links to the same neighbour, a
// frame must never be forwarded "back" over the sibling link even though
// the port differs — the generalized hairpin rule for multigraphs.
func TestParallelLinkHairpinBlocked(t *testing.T) {
	net := netsim.NewNetwork(1)
	h1 := hostpkg.New(net, "h1", 1)
	h2 := hostpkg.New(net, "h2", 2)
	b1 := New(net, "b1", 1, DefaultConfig())
	b2 := New(net, "b2", 2, DefaultConfig())
	cfg := netsim.DefaultLinkConfig()
	fast := net.Connect(b1, b2, cfg)                             // parallel link 1
	slow := net.Connect(b1, b2, cfg.WithDelay(time.Millisecond)) // parallel link 2
	net.Connect(h1, b1, cfg)
	net.Connect(h2, b2, cfg)
	b1.Start()
	b2.Start()
	net.RunFor(time.Millisecond)

	// Discovery: the fast link wins both directions.
	var rtt time.Duration
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(r hostpkg.PingResult) { rtt = r.RTT })
	})
	net.RunFor(2 * time.Second)
	if rtt <= 0 {
		t.Fatal("no connectivity over parallel links")
	}
	if e, _ := b1.EntryFor(h2.MAC()); e.Port.Link() != fast {
		t.Fatal("race did not pick the fast parallel link")
	}

	// Corrupt b2's view on purpose: bind h2 toward b1 over the slow link
	// (simulating the stale state a repair race could leave). A data frame
	// arriving from b1 must NOT bounce back over the sibling link.
	net.Engine.At(net.Now(), func() {
		b2.Table().LearnKey(h2.MAC().Uint64(), slow.B(), net.Now())
	})
	drops := b2.Stats().HairpinDrop
	net.Engine.At(net.Now()+time.Millisecond, func() {
		frame, err := layers.Serialize(
			&layers.Ethernet{Dst: h2.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
			layers.Payload([]byte{0xAA}),
		)
		if err != nil {
			t.Fatal(err)
		}
		h1.Port().Send(frame)
	})
	net.RunFor(100 * time.Millisecond)
	if b2.Stats().HairpinDrop != drops+1 {
		t.Fatalf("parallel-link hairpin not dropped: drops=%d", b2.Stats().HairpinDrop)
	}
}
