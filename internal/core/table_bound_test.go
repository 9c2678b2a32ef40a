package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// boundPorts returns n distinct live ports for bounded-table tests.
func boundPorts(n int) []*netsim.Port {
	net := netsim.NewNetwork(1)
	hub := hostpkg.New(net, "hub", 1)
	ports := make([]*netsim.Port, n)
	for i := range ports {
		peer := hostpkg.New(net, fmt.Sprintf("p%d", i+1), i+2)
		ports[i] = net.Connect(hub, peer, netsim.DefaultLinkConfig()).A()
	}
	return ports
}

// TestEvictionNeverTouchesGuardedEntries is the race-window property
// test: under randomized churn far above capacity, neither LRU nor clock
// may ever evict an entry whose §2.1.1 race window is still open —
// moving a binding mid-race would reopen the loop and duplication
// hazards the lock exists to prevent. The table admits over capacity
// instead.
func TestEvictionNeverTouchesGuardedEntries(t *testing.T) {
	const (
		lockTimeout = 100 * time.Millisecond
		capacity    = 32
		ops         = 20_000
	)
	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			ports := boundPorts(2)
			tb := NewBoundedLockTable(lockTimeout, time.Hour,
				tables.Config{Capacity: capacity, Policy: policy})
			rng := rand.New(rand.NewSource(int64(policy) + 42))

			// Shadow of every key's latest window-opening operation.
			lockedAt := map[uint64]time.Duration{}
			now := time.Duration(0)
			for i := 0; i < ops; i++ {
				now += time.Duration(rng.Intn(2000)) * time.Microsecond
				key := layers.HostMAC(rng.Intn(4096) + 1).Uint64()
				p := ports[rng.Intn(2)]
				switch rng.Intn(4) {
				case 0, 1: // lock opens a race window
					tb.LockKey(key, p, now)
					lockedAt[key] = now
				case 2:
					tb.LearnKey(key, p, now)
					// A learn on another port closes the window (the old
					// port's race is void), so the shadow must forget the
					// deadline — it only ever asserts on keys whose window
					// is provably still open, i.e. locked and untouched
					// since.
					delete(lockedAt, key)
				case 3:
					tb.GetKey(key, now)
				}
				if i%64 == 0 {
					for k, at := range lockedAt {
						if now-at >= lockTimeout {
							delete(lockedAt, k) // window closed
							continue
						}
						if tb.entries.Find(macKey(k)) == 0 {
							t.Fatalf("op %d (%s): key %x evicted inside its race window (locked at %v, now %v)",
								i, policy, k, at, now)
						}
					}
				}
			}
			if tb.Evictions() == 0 {
				t.Fatalf("churn produced no evictions; the property was not exercised (resident %d, cap %d)",
					tb.Len(), capacity)
			}
		})
	}
}

// TestLockTablePortStateReclaim is the side-table leak regression: port
// generation records and the one-slot port cache must not outlive the
// entries referencing them.
func TestLockTablePortStateReclaim(t *testing.T) {
	const n = 64
	ports := boundPorts(n)
	tb := NewLockTable(time.Millisecond, 10*time.Millisecond)

	for i, p := range ports {
		tb.LearnKey(layers.HostMAC(i+1).Uint64(), p, 0)
	}
	if got := tb.PortStates(); got != n {
		t.Fatalf("PortStates = %d, want %d", got, n)
	}
	tb.FlushExpired(time.Second)
	if got := tb.PortStates(); got != 0 {
		t.Fatalf("PortStates = %d after all entries expired, want 0 (port records leak)", got)
	}

	// Repeated link flaps on one port must not accumulate records either.
	for flap := 0; flap < 100; flap++ {
		tb.LearnKey(layers.HostMAC(200).Uint64(), ports[0], time.Second)
		tb.FlushPort(ports[0])
	}
	tb.FlushExpired(2 * time.Second)
	if got := tb.PortStates(); got != 0 {
		t.Fatalf("PortStates = %d after 100 flaps and a sweep, want 0", got)
	}
	if tb.lastPS != nil {
		t.Fatal("one-slot port cache still points at a reclaimed record")
	}
	tb.LearnKey(layers.HostMAC(201).Uint64(), ports[0], 3*time.Second)
	if e, ok := tb.GetKey(layers.HostMAC(201).Uint64(), 3*time.Second); !ok || e.Port != ports[0] {
		t.Fatal("learn after port-state reclaim failed")
	}
}

// TestLockTablePairKeyCorpseSweep is the regression test for the
// table-leak bug first seen on the per-connection table: a TCP-Path
// conversation mix of distinct connections plus FlushPort churn kept
// Len() honest while the stored entries grew without bound — every
// generation-killed and expired entry stayed resident as a corpse
// forever. The amortized sweep must keep the store itself (Entries(),
// not just Len()) bounded by the working set.
func TestLockTablePairKeyCorpseSweep(t *testing.T) {
	ports := boundPorts(2)
	// Short confirmed lifetime so expiry churns quickly; the sweep period
	// equals it.
	const lifetime = 10 * time.Millisecond
	tb := NewLockTable(time.Millisecond, lifetime)

	now := time.Duration(0)
	maxEntries := 0
	for i := 0; i < 50_000; i++ {
		// Each iteration is a distinct connection (fresh key), as under
		// million-conversation churn.
		tb.Learn(tables.Key{Hi: uint64(i + 1), Lo: uint64(i) << 32}, ports[i%2], now)
		if i%100 == 99 {
			// Link flap: generation-kill everything on one port. The
			// corpses this creates are exactly what leaked.
			tb.FlushPort(ports[0])
		}
		now += 100 * time.Microsecond
		maxEntries = max(maxEntries, tb.Entries())
	}
	// The working set is at most lifetime/spacing = 100 live entries plus
	// one sweep period of corpses — far below the 50k keys inserted. Give
	// generous slack; the leaking behaviour was ~50k.
	if maxEntries > 1000 {
		t.Fatalf("table grew to %d entries under churn (want bounded ≈ working set); corpses are leaking", maxEntries)
	}
	if tb.Len() > tb.Entries() {
		t.Fatalf("resident %d exceeds stored %d", tb.Len(), tb.Entries())
	}
}

// TestLockTablePairKeyPortStateReclaim is the side-table leak regression
// at pair keys: port records are reclaimed once no live entry references
// them, for ports that vanish from the workload and across repeated link
// flaps.
func TestLockTablePairKeyPortStateReclaim(t *testing.T) {
	const n = 64
	ports := boundPorts(n)
	tb := NewLockTable(time.Millisecond, 10*time.Millisecond)

	// One entry per port, then let everything expire: a full sweep must
	// drop every port record along with the corpses.
	for i, p := range ports {
		tb.Learn(tables.Key{Hi: uint64(i + 1), Lo: 1}, p, 0)
	}
	if got := tb.PortStates(); got != n {
		t.Fatalf("PortStates = %d, want %d", got, n)
	}
	tb.FlushExpired(time.Second)
	if got := tb.PortStates(); got != 0 {
		t.Fatalf("PortStates = %d after all entries expired, want 0 (port records leak)", got)
	}

	// Repeated flaps on one port: flush, re-learn, flush, ... The port
	// records must stay at one, not accumulate generations.
	for flap := 0; flap < 100; flap++ {
		tb.Learn(tables.Key{Hi: 7, Lo: uint64(flap)}, ports[0], time.Second)
		tb.FlushPort(ports[0])
	}
	tb.FlushExpired(2 * time.Second)
	if got := tb.PortStates(); got != 0 {
		t.Fatalf("PortStates = %d after 100 flaps and a sweep, want 0", got)
	}
	// The one-slot port cache must not resurrect the reclaimed record.
	if tb.lastPS != nil {
		t.Fatal("port cache still points at a reclaimed record")
	}
	tb.Learn(tables.Key{Hi: 8, Lo: 8}, ports[0], 3*time.Second)
	if e, ok := tb.Get(tables.Key{Hi: 8, Lo: 8}, 3*time.Second); !ok || e.Port != ports[0] {
		t.Fatal("learn after port-state reclaim failed")
	}
}

// TestLockTableCapacityBound: the bound holds under distinct-key churn
// once race windows close, evictions follow the policy's order, and the
// eviction/peak counters report what happened.
func TestLockTableCapacityBound(t *testing.T) {
	ports := boundPorts(1)
	const capacity = 16
	tb := NewBoundedLockTable(time.Millisecond, time.Hour,
		tables.Config{Capacity: capacity, Policy: tables.PolicyLRU})

	now := 10 * time.Millisecond
	for i := 1; i <= 200; i++ {
		tb.LearnKey(layers.HostMAC(i).Uint64(), ports[0], now)
		now += 2 * time.Millisecond // windows close between inserts
	}
	if got := tb.Entries(); got > capacity {
		t.Fatalf("Entries = %d, want ≤ %d", got, capacity)
	}
	if tb.Evictions() == 0 {
		t.Fatal("no evictions counted")
	}
	if tb.PeakEntries() > capacity {
		t.Fatalf("peak %d exceeded capacity %d without guarded entries", tb.PeakEntries(), capacity)
	}
	// LRU: the survivors are exactly the most recent inserts.
	if _, ok := tb.GetKey(layers.HostMAC(200).Uint64(), now); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := tb.GetKey(layers.HostMAC(1).Uint64(), now); ok {
		t.Fatal("least recent entry survived 184 evictions")
	}
}

// BenchmarkTableChurn measures the bounded-table steady state the
// eviction-pressure experiment lives in: every op inserts a fresh key
// into a full table, forcing a policy eviction plus tracker recycling.
// The interesting number is allocs/op: it must be zero (the gate in
// ../../zeroalloc_test.go enforces this without -bench).
func BenchmarkTableChurn(b *testing.B) {
	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		b.Run(policy.String(), func(b *testing.B) {
			ports := boundPorts(1)
			tb := NewBoundedLockTable(time.Millisecond, time.Hour,
				tables.Config{Capacity: 1024, Policy: policy})
			now := 10 * time.Millisecond
			for i := 0; i < 4096; i++ { // fill past capacity, warm the arena
				tb.LearnKey(uint64(i)+1<<32, ports[0], now)
				now += 2 * time.Millisecond
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.LearnKey(uint64(i)+1<<40, ports[0], now)
				now += 2 * time.Millisecond
			}
		})
	}
}
