package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestPendingCountsBufferedEvents pins the queue-size accounting from
// inside a handler: work it schedules — at its own timestamp or later —
// shows up in Pending() immediately.
func TestPendingCountsBufferedEvents(t *testing.T) {
	e := New(1)
	var inside []int
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	// At t=10µs: schedule one event at the executing timestamp, one at a
	// future time, then record what Pending reports from inside the
	// handler.
	e.Schedule(10*time.Microsecond, func() {
		e.Schedule(10*time.Microsecond, func() {})
		e.Schedule(20*time.Microsecond, func() {})
		inside = append(inside, e.Pending())
	})
	e.Run()
	if len(inside) != 1 || inside[0] != 2 {
		t.Fatalf("Pending inside handler = %v, want [2]", inside)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if e.Processed() != 8 {
		t.Fatalf("processed %d events, want 8", e.Processed())
	}
}

// TestPendingCountsCanceledInBuffers pins the lazy-cancellation contract:
// a timer stopped from inside a handler still counts in Pending until the
// queue discards its entry, and Run leaves nothing behind.
func TestPendingCountsCanceledInBuffers(t *testing.T) {
	e := New(1)
	var tm *Timer
	var inside int
	e.Schedule(time.Microsecond, func() {
		tm = e.At(5*time.Microsecond, func() { t.Fatal("canceled event ran") })
		tm.Stop()
		inside = e.Pending()
	})
	e.Run()
	if !tm.Stopped() {
		t.Fatal("Stop did not take")
	}
	if inside != 1 {
		t.Fatalf("Pending after Stop inside handler = %d, want 1", inside)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// execKey is one event's (time, owner, oseq) ordering key.
type execKey struct {
	at          time.Duration
	owner, oseq uint64
}

func (a execKey) less(b execKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.oseq < b.oseq
}

// keyOracle is the test's own model of the engine's pending set. Every
// Proc.At and Proc.Schedule consumes exactly one per-Proc sequence
// number, so the oracle derives each scheduled key independently of the
// engine and checks that every executed key is the minimum of the set.
type keyOracle struct {
	t       *testing.T
	seed    int64
	seq     map[uint64]uint64 // per-owner next oseq
	pending map[execKey]bool
	ran     int
}

func newKeyOracle(t *testing.T, seed int64) *keyOracle {
	return &keyOracle{t: t, seed: seed, seq: map[uint64]uint64{}, pending: map[execKey]bool{}}
}

// scheduled records the key the next At/Schedule on p at time at gets.
func (o *keyOracle) scheduled(p *Proc, at time.Duration) execKey {
	k := execKey{at: at, owner: p.ID(), oseq: o.seq[p.ID()]}
	o.seq[p.ID()]++
	o.pending[k] = true
	return k
}

// executed checks that the engine's current key is the pending minimum
// and retires it.
func (o *keyOracle) executed(e *Engine) {
	at, owner, oseq := e.CurKey()
	got := execKey{at, owner, oseq}
	var lo execKey
	first := true
	for k := range o.pending {
		if first || k.less(lo) {
			lo, first = k, false
		}
	}
	if first || got != lo {
		o.t.Fatalf("seed %d: event %d ran key %+v, oracle minimum %+v (set size %d)",
			o.seed, o.ran, got, lo, len(o.pending))
	}
	delete(o.pending, got)
	o.ran++
}

// runRandomWorkload drives one randomized scheduling storm on a fresh
// engine, checking every executed key against a keyOracle, and returns
// how many events ran. The storm stresses the ordering key on every
// axis: bursts of events sharing one timestamp under shuffled owners,
// cascades scheduled from inside handlers at the current timestamp and at
// tiny deltas, timer cancellations (stale heap entries), and occasional
// far jumps.
func runRandomWorkload(t *testing.T, seed int64) int {
	e := New(seed)
	o := newKeyOracle(t, seed)
	rng := rand.New(rand.NewSource(seed))
	// Owners and sequences sit at both ends of their packed fields, and
	// some sequences cross the top bit of theirs mid-run, so a carry or
	// borrow lost between the key words shows up as a misordering. A run
	// schedules far fewer than 20000 events.
	ids := []uint64{1, 2, 1 << 19, ownerMax - 1, ownerMax - 2, 3, 1<<19 + 1, ownerMax - 3}
	seqs := []uint64{0, seqMax - 20000, 1<<43 - 50, seqMax - 20000, 0, 1<<43 - 50, 0, seqMax - 20000}
	procs := make([]*Proc, len(ids))
	for i := range procs {
		procs[i] = NewProc(e, ids[i])
		procs[i].seq = seqs[i]
		o.seq[ids[i]] = seqs[i]
	}
	type armed struct {
		tm  *Timer
		key execKey
	}
	var timers []armed
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		return func() {
			o.executed(e)
			if depth >= 3 {
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				p := procs[rng.Intn(len(procs))]
				var d time.Duration
				switch rng.Intn(4) {
				case 0: // same timestamp, possibly smaller owner
					d = 0
				case 1: // a nanosecond or two ahead
					d = time.Duration(rng.Intn(3)) * time.Nanosecond
				case 2: // near future
					d = time.Duration(rng.Intn(500)) * time.Nanosecond
				default: // far jump
					d = time.Duration(1+rng.Intn(5)) * time.Microsecond
				}
				k := o.scheduled(p, p.Now()+d)
				if rng.Intn(5) == 0 {
					timers = append(timers, armed{p.At(k.at, spawn(depth+1)), k})
				} else {
					p.Schedule(k.at, spawn(depth+1))
				}
			}
			// Cancel a random outstanding timer now and then; one that
			// already fired reports false and leaves the oracle alone.
			if len(timers) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(timers))
				if timers[i].tm.Stop() {
					delete(o.pending, timers[i].key)
				}
				timers[i] = timers[len(timers)-1]
				timers = timers[:len(timers)-1]
			}
		}
	}
	// Seed bursts: many events at identical timestamps under shuffled
	// owners.
	for burst := 0; burst < 6; burst++ {
		at := time.Duration(burst) * 300 * time.Nanosecond
		order := rng.Perm(len(procs))
		for _, pi := range order {
			for k := 0; k < 3; k++ {
				o.scheduled(procs[pi], at)
				procs[pi].Schedule(at, spawn(0))
			}
		}
	}
	e.Run()
	if len(o.pending) != 0 {
		t.Fatalf("seed %d: %d scheduled events never ran", seed, len(o.pending))
	}
	if uint64(o.ran) != e.Processed() {
		t.Fatalf("seed %d: oracle saw %d events, engine processed %d", seed, o.ran, e.Processed())
	}
	return o.ran
}

// TestRandomWorkloadMatchesKeyOracle checks the engine's execution order
// against an independent model: over a sweep of seeds, every event the
// randomized storm executes is the minimum key of the test's own pending
// set, and the set ends empty.
func TestRandomWorkloadMatchesKeyOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if n := runRandomWorkload(t, seed); n < 144 {
			t.Fatalf("seed %d: only %d events ran, want at least the 144 seeded", seed, n)
		}
	}
}

// TestSameInstantBurstKeepsOrder schedules a large burst of events at the
// executing timestamp from inside one handler, in shuffled owner order,
// and asserts the engine executes every one of them in exact
// (time, owner, oseq) order.
func TestSameInstantBurstKeepsOrder(t *testing.T) {
	e := New(7)
	rng := rand.New(rand.NewSource(7))
	const owners, burst = 64, 1088
	procs := make([]*Proc, owners)
	for i := range procs {
		procs[i] = NewProc(e, uint64(i+1))
	}
	var log []execKey
	record := func() {
		at, owner, oseq := e.CurKey()
		log = append(log, execKey{at, owner, oseq})
	}
	const at = time.Microsecond
	e.Schedule(at, func() {
		for i := 0; i < burst; i++ {
			procs[rng.Intn(owners)].Schedule(at, record)
		}
	})
	e.Run()
	if len(log) != burst {
		t.Fatalf("ran %d events, want %d", len(log), burst)
	}
	for i := 1; i < len(log); i++ {
		p, c := log[i-1], log[i]
		if c.at != p.at {
			t.Fatalf("event %d: time moved %v -> %v inside a same-time burst", i, p.at, c.at)
		}
		if !p.less(c) {
			t.Fatalf("event %d: key order violated: (%d,%d) after (%d,%d)",
				i, c.owner, c.oseq, p.owner, p.oseq)
		}
	}
}
