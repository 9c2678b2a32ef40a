package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// refTable is the reference model for LockTable: the same contract kept
// as simply as possible — a Go map of entries, a Go map of port
// generations, and the shared recency tracker for victim order.
type refTable struct {
	lockTimeout, learnedTimeout time.Duration
	capacity                    int
	tracker                     *tables.Tracker[uint64]
	entries                     map[uint64]refEntry
	gens                        map[*netsim.Port]uint32
	evictions                   uint64
	peak                        int
	nextSweep                   time.Duration
}

type refEntry struct {
	Entry
	gen uint32
	th  tables.Handle
}

func newRefTable(lock, learned time.Duration, bound tables.Config) *refTable {
	r := &refTable{
		lockTimeout: lock, learnedTimeout: learned, capacity: bound.Capacity,
		entries: map[uint64]refEntry{}, gens: map[*netsim.Port]uint32{},
	}
	if bound.Tracked() {
		r.tracker = tables.NewTracker[uint64](bound.Policy)
	}
	return r
}

func (r *refTable) dead(e refEntry, now time.Duration) bool {
	return e.Expires <= now || e.gen != r.gens[e.Port]
}

func (r *refTable) evict(key uint64) {
	if r.tracker != nil {
		r.tracker.Remove(r.entries[key].th)
	}
	delete(r.entries, key)
}

func (r *refTable) touch(e refEntry) {
	if r.tracker != nil {
		r.tracker.Touch(e.th)
	}
}

// live returns key's entry if it is live, evicting a dead one.
func (r *refTable) live(key uint64, now time.Duration) (refEntry, bool) {
	e, ok := r.entries[key]
	if ok && r.dead(e, now) {
		r.evict(key)
		return refEntry{}, false
	}
	return e, ok
}

func (r *refTable) write(key uint64, e Entry, now time.Duration) {
	if key == 0 || layers.KeyIsMulticast(key) {
		return
	}
	if now >= r.nextSweep {
		r.flushExpired(now)
		r.nextSweep = now + r.learnedTimeout
	}
	old, had := r.entries[key]
	if e.State == StateLearned && had && old.Port == e.Port && !r.dead(old, now) {
		e.LockedUntil = old.LockedUntil
	}
	if !had && r.tracker != nil && r.capacity > 0 {
		r.makeRoom(now)
	}
	ne := refEntry{Entry: e, gen: r.gens[e.Port], th: old.th}
	if r.tracker != nil {
		if had {
			r.tracker.Touch(old.th)
		} else {
			ne.th = r.tracker.Insert(key)
		}
	}
	r.entries[key] = ne
	r.peak = max(r.peak, len(r.entries))
}

func (r *refTable) makeRoom(now time.Duration) {
	for rejects := tables.RejectBudget; len(r.entries) >= r.capacity; {
		h, ok := r.tracker.Victim()
		if !ok {
			return
		}
		key := r.tracker.Key(h)
		switch e := r.entries[key]; {
		case r.dead(e, now):
			r.evict(key)
		case !e.Guarded(now):
			r.evictions++
			r.evict(key)
		default:
			r.tracker.Reject(h)
			if rejects--; rejects <= 0 {
				return
			}
		}
	}
}

func (r *refTable) lock(key uint64, p *netsim.Port, now time.Duration) {
	r.write(key, Entry{Port: p, State: StateLocked, Expires: now + r.lockTimeout, LockedUntil: now + r.lockTimeout}, now)
}

func (r *refTable) learn(key uint64, p *netsim.Port, now time.Duration) {
	r.write(key, Entry{Port: p, State: StateLearned, Expires: now + r.learnedTimeout}, now)
}

func (r *refTable) get(key uint64, now time.Duration) (Entry, bool) {
	e, ok := r.live(key, now)
	if ok {
		r.touch(e)
	}
	return e.Entry, ok
}

func (r *refTable) guard(key uint64, now time.Duration) {
	if e, ok := r.live(key, now); ok {
		e.LockedUntil = now + r.lockTimeout
		e.Expires = max(e.Expires, e.LockedUntil)
		r.touch(e)
		r.entries[key] = e
	}
}

func (r *refTable) refresh(key uint64, now time.Duration) {
	if e, ok := r.live(key, now); ok {
		if e.State == StateLocked {
			e.Expires = now + r.lockTimeout
		} else {
			e.Expires = now + r.learnedTimeout
		}
		r.touch(e)
		r.entries[key] = e
	}
}

func (r *refTable) delete(key uint64) {
	if _, ok := r.entries[key]; ok {
		r.evict(key)
	}
}

func (r *refTable) flushPort(p *netsim.Port) int {
	n := 0
	for _, e := range r.entries {
		if e.Port == p && e.gen == r.gens[p] {
			n++
		}
	}
	r.gens[p]++
	return n
}

func (r *refTable) flushExpired(now time.Duration) {
	for key, e := range r.entries {
		if r.dead(e, now) {
			r.evict(key)
		}
	}
}

func (r *refTable) reset() {
	clear(r.entries)
	clear(r.gens)
	r.nextSweep = 0
	if r.tracker != nil {
		r.tracker.Reset()
	}
}

func (r *refTable) len() int {
	n := 0
	for _, e := range r.entries {
		if e.gen == r.gens[e.Port] {
			n++
		}
	}
	return n
}

func (r *refTable) snapshot(now time.Duration) map[layers.MAC]Entry {
	out := map[layers.MAC]Entry{}
	for key, e := range r.entries {
		if !r.dead(e, now) {
			out[layers.MACFromUint64(key)] = e.Entry
		}
	}
	return out
}

// TestLockTableMatchesModel drives LockTable and the reference model with
// the same seeded operation stream — unbounded, and bounded under LRU and
// clock — and compares every observable after every operation.
func TestLockTableMatchesModel(t *testing.T) {
	const (
		lockTimeout    = 2 * time.Millisecond
		learnedTimeout = 40 * time.Millisecond
		ops            = 30000
	)
	ports := boundPorts(4)
	keys := make([]uint64, 0, 66)
	for i := 1; i <= 64; i++ {
		keys = append(keys, layers.HostMAC(i).Uint64())
	}
	keys = append(keys, 0, layers.BroadcastMAC.Uint64()) // rejected by writes

	for _, bound := range []tables.Config{
		{},
		{Capacity: 24, Policy: tables.PolicyLRU},
		{Capacity: 24, Policy: tables.PolicyClock},
	} {
		name := fmt.Sprintf("%s-%d", bound.Policy, bound.Capacity)
		t.Run(name, func(t *testing.T) {
			tb := NewBoundedLockTable(lockTimeout, learnedTimeout, bound)
			ref := newRefTable(lockTimeout, learnedTimeout, bound)
			rng := rand.New(rand.NewSource(11))
			now := time.Duration(0)
			for i := 0; i < ops; i++ {
				now += time.Duration(rng.Intn(400)) * time.Microsecond
				key := keys[rng.Intn(len(keys))]
				p := ports[rng.Intn(len(ports))]
				var op string
				switch x := rng.Intn(100); {
				case x < 25:
					op = "lock"
					tb.LockKey(key, p, now)
					ref.lock(key, p, now)
				case x < 45:
					op = "learn"
					tb.LearnKey(key, p, now)
					ref.learn(key, p, now)
				case x < 55:
					op = "guard"
					tb.GuardKey(key, now)
					ref.guard(key, now)
				case x < 70:
					op = "refresh"
					tb.RefreshKey(key, now)
					ref.refresh(key, now)
				case x < 90:
					op = "get"
				case x < 95:
					op = "delete"
					tb.DeleteKey(key)
					ref.delete(key)
				case x < 98:
					op = "flushport"
					if got, want := tb.FlushPort(p), ref.flushPort(p); got != want {
						t.Fatalf("op %d FlushPort = %d, model %d", i, got, want)
					}
				case x < 99:
					op = "flushexpired"
					tb.FlushExpired(now)
					ref.flushExpired(now)
				default:
					op = "reset"
					tb.Reset()
					ref.reset()
				}
				// Every operation ends with a compared Get of its key (a
				// "get" operation is just that): it touches recency on both
				// sides alike.
				got, gok := tb.GetKey(key, now)
				want, wok := ref.get(key, now)
				if got != want || gok != wok {
					t.Fatalf("op %d (%s): get %x: table (%+v, %v), model (%+v, %v)", i, op, key, got, gok, want, wok)
				}
				if tb.Len() != ref.len() || tb.Entries() != len(ref.entries) ||
					tb.Evictions() != ref.evictions || tb.PeakEntries() != ref.peak {
					t.Fatalf("op %d (%s): table len/entries/evictions/peak %d/%d/%d/%d, model %d/%d/%d/%d",
						i, op, tb.Len(), tb.Entries(), tb.Evictions(), tb.PeakEntries(),
						ref.len(), len(ref.entries), ref.evictions, ref.peak)
				}
				if got, want := tb.Snapshot(now), ref.snapshot(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d (%s): snapshots differ:\ntable %v\nmodel %v", i, op, got, want)
				}
			}
			if bound.Capacity > 0 && tb.Evictions() == 0 {
				t.Fatal("no capacity evictions: the bound was not exercised")
			}
		})
	}
}
