package tables

import (
	"math/rand"
	"testing"
)

// mk is the MAC-shaped table key for a small integer.
func mk(i int) Key { return Key{Hi: uint64(i)} }

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyTimeout, true},
		{"timeout", PolicyTimeout, true},
		{"lru", PolicyLRU, true},
		{"clock", PolicyClock, true},
		{"LRU", 0, false},
		{"random", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParsePolicy(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, p := range []Policy{PolicyTimeout, PolicyLRU, PolicyClock} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip %v: got %v, err %v", p, back, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if err := (Config{Capacity: 4, Policy: PolicyLRU}).Validate(); err != nil {
		t.Fatalf("bounded lru: %v", err)
	}
	if err := (Config{Capacity: 0, Policy: PolicyClock}).Validate(); err != nil {
		t.Fatalf("unbounded clock (tracked, never evicts): %v", err)
	}
	if err := (Config{Capacity: 4}).Validate(); err == nil {
		t.Fatal("capacity without policy must be rejected")
	}
	if err := (Config{Capacity: -1}).Validate(); err == nil {
		t.Fatal("negative capacity must be rejected")
	}
	if _, err := ParseConfig(8, "bogus"); err == nil {
		t.Fatal("ParseConfig must reject unknown policies")
	}
}

func TestLRUOrder(t *testing.T) {
	tr := NewTracker(Config{Policy: PolicyLRU})
	h := map[int]Handle{}
	for i := 1; i <= 4; i++ {
		h[i] = tr.Insert(mk(i))
	}
	tr.Touch(h[1]) // order now 2,3,4,1 cold→hot

	want := []int{2, 3, 4, 1}
	for _, k := range want {
		v, ok := tr.Victim()
		if !ok || tr.Key(v) != mk(k) {
			t.Fatalf("victim: got %v ok=%v, want %d", tr.Key(v), ok, k)
		}
		tr.Remove(v)
	}
	if _, ok := tr.Victim(); ok || tr.Len() != 0 {
		t.Fatal("tracker should be empty")
	}
}

func TestLRURejectMovesOn(t *testing.T) {
	tr := NewTracker(Config{Policy: PolicyLRU})
	a := tr.Insert(mk(1))
	tr.Insert(mk(2))
	v, _ := tr.Victim()
	if v != a {
		t.Fatalf("expected 1 coldest")
	}
	tr.Reject(v)
	v2, _ := tr.Victim()
	if tr.Key(v2) != mk(2) {
		t.Fatalf("after reject, victim = %v, want 2", tr.Key(v2))
	}
}

func TestClockSecondChance(t *testing.T) {
	tr := NewTracker(Config{Policy: PolicyClock})
	h := map[int]Handle{}
	for i := 1; i <= 3; i++ {
		h[i] = tr.Insert(mk(i))
	}
	tr.Touch(h[1]) // 1 gets a second chance

	v, ok := tr.Victim()
	if !ok || tr.Key(v) != mk(2) {
		t.Fatalf("clock victim = %v, want 2 (1 is referenced)", tr.Key(v))
	}
	tr.Remove(v)
	// 1's bit was cleared by the pass above; next victim is 3 only if the
	// hand moved past 1. The hand sits where the last victim was found, so
	// the walk resumes from 3: 3 unreferenced → victim.
	v, _ = tr.Victim()
	if tr.Key(v) != mk(3) {
		t.Fatalf("clock victim = %v, want 3", tr.Key(v))
	}
	tr.Remove(v)
	v, _ = tr.Victim()
	if tr.Key(v) != mk(1) {
		t.Fatalf("clock victim = %v, want 1", tr.Key(v))
	}
}

func TestClockRejectAdvancesHand(t *testing.T) {
	tr := NewTracker(Config{Policy: PolicyClock})
	a := tr.Insert(mk(1))
	tr.Insert(mk(2))
	v, _ := tr.Victim()
	if v != a {
		t.Fatal("expected 1 first")
	}
	tr.Reject(v) // re-arms 1, hand moves to 2
	v2, _ := tr.Victim()
	if tr.Key(v2) != mk(2) {
		t.Fatalf("after reject, victim = %v, want 2", tr.Key(v2))
	}
}

// TestTrackerChurnReusesArena drives heavy insert/remove churn and checks
// the arena does not grow past occupancy + 1 slack: the free list recycles
// every node, which is what makes bounded tables zero-alloc at steady
// state.
func TestTrackerChurnReusesArena(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyClock} {
		tr := NewTracker(Config{Policy: p})
		live := []Handle{}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			switch {
			case len(live) < 64:
				live = append(live, tr.Insert(mk(i)))
			default:
				j := rng.Intn(len(live))
				switch rng.Intn(3) {
				case 0:
					tr.Touch(live[j])
				case 1:
					if v, ok := tr.Victim(); ok {
						tr.Reject(v)
					}
				default:
					tr.Remove(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}
		if got := len(tr.nodes); got > 64+2 {
			t.Fatalf("%v: arena grew to %d nodes for 64 live keys", p, got)
		}
		// Exhaustive drain must return every live key exactly once.
		seen := map[Key]bool{}
		for tr.Len() > 0 {
			v, ok := tr.Victim()
			if !ok {
				t.Fatalf("%v: Len=%d but no victim", p, tr.Len())
			}
			k := tr.Key(v)
			if seen[k] {
				t.Fatalf("%v: key %v proposed twice", p, k)
			}
			seen[k] = true
			tr.Remove(v)
		}
		if len(seen) != len(live) {
			t.Fatalf("%v: drained %d keys, want %d", p, len(seen), len(live))
		}
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(Config{Policy: PolicyLRU})
	for i := 0; i < 10; i++ {
		tr.Insert(mk(i))
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset should empty the tracker")
	}
	h := tr.Insert(mk(42))
	if v, ok := tr.Victim(); !ok || v != h || tr.Key(v) != mk(42) {
		t.Fatal("tracker unusable after reset")
	}
}

// TestTrackerArenaStopsAtCapacity: a bounded tracker's node arena stops
// doubling at exactly the capacity (plus the sentinel), as Map's dense
// arrays do, and resumes doubling only past it.
func TestTrackerArenaStopsAtCapacity(t *testing.T) {
	tr := NewTracker(Config{Capacity: 100, Policy: PolicyLRU})
	for i := 1; i <= 100; i++ {
		tr.Insert(mk(i))
	}
	if cap(tr.nodes) != 101 {
		t.Fatalf("full tracker: arena cap %d, want 101", cap(tr.nodes))
	}
	tr.Insert(mk(101))
	if cap(tr.nodes) != 202 {
		t.Fatalf("growth past the capacity: arena cap %d, want 202", cap(tr.nodes))
	}
}
