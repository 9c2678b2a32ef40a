package repro

// The zero-allocation gate (DESIGN.md §3): once paths are established,
// forwarding a unicast frame across the fabric must not allocate — not
// in the engine (pooled events), not in the links (pooled frames and
// flights), not in the bridges (packed-key table ops on a pre-decoded
// view) — and neither must the hosts at either end: a UDP send over a
// cached ARP binding, its delivery to a borrowing socket, and an
// application flow's next tick. The benchmarks report the same property;
// this test enforces it on every CI run without -bench.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowpath"
	hostpkg "repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/tables"
)

func TestSteadyStateForwardingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	for _, tc := range []struct {
		name    string
		bridges int
	}{
		{"SingleHop", 1},
		{"Chain16", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, frame := establishedLine(t, tc.bridges)
			src := built.Host("H1").Port()
			// Warm every pool: frame buffers, flights, engine events.
			for i := 0; i < 200; i++ {
				src.Send(frame)
				built.Net.Network.Run()
			}
			rx0 := built.Host("H2").Stats().FramesRx
			const runs = 500
			allocs := testing.AllocsPerRun(runs, func() {
				src.Send(frame)
				built.Net.Network.Run()
			})
			if allocs != 0 {
				t.Fatalf("steady-state forward allocates %.2f/op, want 0", allocs)
			}
			// AllocsPerRun executes runs+1 iterations.
			if got := built.Host("H2").Stats().FramesRx - rx0; got != runs+1 {
				t.Fatalf("delivered %d frames, want %d", got, runs+1)
			}
		})
	}
}

// TestHostTransmitDoesNotAllocate starts the gate where traffic starts:
// at the sending host's stack instead of a pre-built frame. Over a warm
// ARP cache, UDPSocket.SendTo → bridges → app.Sink, and one app.StartFlow
// tick (send plus reschedule), must each run allocation-free.
func TestHostTransmitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	const runs = 500
	t.Run("UDPSendTo", func(t *testing.T) {
		built, _ := establishedLine(t, 4)
		h1, h2 := built.Host("H1"), built.Host("H2")
		sink := app.NewSink(h2, 9000)
		sock := h1.UDP(9001, nil)
		payload := make([]byte, 18)
		send := func() {
			sock.SendTo(h2.IP(), 9000, payload)
			built.Net.Network.Run()
		}
		for i := 0; i < 200; i++ {
			send()
		}
		n0 := sink.Count()
		if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
			t.Fatalf("UDP send over a warm ARP cache allocates %.2f/op, want 0", allocs)
		}
		if got := sink.Count() - n0; got != runs+1 {
			t.Fatalf("sink received %d datagrams, want %d", got, runs+1)
		}
	})
	t.Run("StartFlowTick", func(t *testing.T) {
		built, _ := establishedLine(t, 4)
		h1, h2 := built.Host("H1"), built.Host("H2")
		sink := app.NewSink(h2, 9000)
		const interval = time.Millisecond
		app.StartFlow(h1, app.FlowConfig{
			DstIP: h2.IP(), DstPort: 9000, SrcPort: 9001,
			PayloadSize: 18, Interval: interval, Count: 1 << 20,
		}, nil)
		tick := func() { built.RunFor(interval) }
		for i := 0; i < 200; i++ {
			tick()
		}
		n0 := sink.Count()
		if allocs := testing.AllocsPerRun(runs, tick); allocs != 0 {
			t.Fatalf("one StartFlow tick allocates %.2f/op, want 0", allocs)
		}
		if got := sink.Count() - n0; got != runs+1 {
			t.Fatalf("sink received %d datagrams, want %d", got, runs+1)
		}
	})
}

// TestBoundedTableChurnDoesNotAllocate extends the gate to the bounded
// forwarding tables (DESIGN.md §12): steady-state churn — a fresh key
// into a full table, forcing an eviction and recycling a tracker node —
// must not allocate in any of the three tables, under either policy. The
// tracker's slice-arena free list and the map's delete-then-insert
// balance are what make a million-conversation run flat.
func TestBoundedTableChurnDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	net := netsim.NewNetwork(1)
	a, b := hostpkg.New(net, "a", 1), hostpkg.New(net, "b", 2)
	port := net.Connect(a, b, netsim.DefaultLinkConfig()).A()

	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		bound := tables.Config{Capacity: 512, Policy: policy}
		t.Run("LockTable/"+policy.String(), func(t *testing.T) {
			tb := core.NewBoundedLockTable(time.Millisecond, time.Hour, bound)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.LearnKey(key, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn() // fill past capacity, warm the arena
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded LockTable churn allocates %.2f/op, want 0", allocs)
			}
		})
		t.Run("PairTable/"+policy.String(), func(t *testing.T) {
			tb := flowpath.NewBoundedPairTable(time.Millisecond, time.Hour, bound, false)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.Learn(flowpath.PairKey{Hi: key, Lo: key ^ 0xFFFF}, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn()
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded PairTable churn allocates %.2f/op, want 0", allocs)
			}
		})
		t.Run("LearningTable/"+policy.String(), func(t *testing.T) {
			tb := learning.NewBoundedTable(time.Hour, bound)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.LearnKey(key, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn()
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded learning.Table churn allocates %.2f/op, want 0", allocs)
			}
		})
	}
}

// TestShardedSteadyStateCoordinationDoesNotAllocate extends the gate to
// the parallel coordinator (DESIGN.md §8): once paths are established on
// a partitioned line, steady-state forwarding — windows dispatched
// through the epoch barrier, cross-shard arrivals drained by the
// destination workers — must stay allocation-free per window. The only
// tolerated mallocs are the per-run worker spawns (one goroutine per
// shard per Run call, amortized over that run's windows), which is why
// the gate is a mallocs-per-window budget from runtime.MemStats rather
// than testing.AllocsPerRun: spawning goroutines inside AllocsPerRun's
// callback would charge scheduler bookkeeping to every iteration.
func TestShardedSteadyStateCoordinationDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	built, frame := establishedLineSharded(t, 8, 2)
	if k, ok := built.Net.Network.Sharded(); !ok || k != 2 {
		t.Fatalf("expected a 2-shard line, got %d shards", k)
	}
	src := built.Host("H1").Port()
	net := built.Net.Network
	// Warm every pool: frame buffers, flights, remote flights, engine
	// events, tap arenas, worker scheduler state.
	for i := 0; i < 200; i++ {
		src.Send(frame)
		net.Run()
	}
	rx0 := built.Host("H2").Stats().FramesRx
	w0 := net.CoordStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 300
	for i := 0; i < runs; i++ {
		src.Send(frame)
		net.Run()
	}
	runtime.ReadMemStats(&m1)
	w1 := net.CoordStats()
	windows := w1.Windows - w0.Windows
	if windows < 2*runs {
		// Each end-to-end frame traversal takes several lookahead windows
		// on a 2-shard line; a collapse here means the workload stopped
		// exercising the coordinator and the gate is vacuous.
		t.Fatalf("only %d windows over %d runs — workload no longer drives the coordinator", windows, runs)
	}
	if got := built.Host("H2").Stats().FramesRx - rx0; got != runs {
		t.Fatalf("delivered %d frames, want %d", got, runs)
	}
	perWindow := float64(m1.Mallocs-m0.Mallocs) / float64(windows)
	if perWindow >= 1.0 {
		t.Fatalf("sharded steady state allocates %.3f objects/window (%d mallocs over %d windows), want < 1",
			perWindow, m1.Mallocs-m0.Mallocs, windows)
	}
}

// TestEstablishedPathStaysUp is the functional sibling of the allocation
// gate: the frames pumped above must actually arrive, and keep arriving
// when the steady state is perturbed by re-establishment traffic.
func TestEstablishedPathStaysUp(t *testing.T) {
	built, frame := establishedLine(t, 4)
	h2 := built.Host("H2")
	src := built.Host("H1").Port()
	for i := 0; i < 50; i++ {
		src.Send(frame)
		built.Net.Network.Run()
	}
	rx := h2.Stats().FramesRx
	if rx < 50 {
		t.Fatalf("FramesRx = %d, want ≥ 50", rx)
	}
	// A fresh ping (broadcast ARP + unicast echo) must coexist with the
	// pooled fast path.
	ok := false
	built.Engine.At(built.Now(), func() {
		built.Host("H1").Ping(h2.IP(), 0, time.Second, func(r PingResult) { ok = r.Err == nil })
	})
	built.RunFor(2 * time.Second)
	if !ok {
		t.Fatal("ping across warmed fabric failed")
	}
}
