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
	tracker                     *tables.Tracker
	entries                     map[tables.Key]refEntry
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
		entries: map[tables.Key]refEntry{}, gens: map[*netsim.Port]uint32{},
	}
	if bound.Tracked() {
		r.tracker = tables.NewTracker(bound)
	}
	return r
}

func (r *refTable) dead(e refEntry, now time.Duration) bool {
	return e.Expires <= now || e.gen != r.gens[e.Port]
}

func (r *refTable) evict(key tables.Key) {
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
func (r *refTable) live(key tables.Key, now time.Duration) (refEntry, bool) {
	e, ok := r.entries[key]
	if ok && r.dead(e, now) {
		r.evict(key)
		return refEntry{}, false
	}
	return e, ok
}

func (r *refTable) write(key tables.Key, e Entry, now time.Duration) {
	if key == (tables.Key{}) {
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

func (r *refTable) lock(key tables.Key, p *netsim.Port, now time.Duration) {
	r.write(key, Entry{Port: p, State: StateLocked, Expires: now + r.lockTimeout, LockedUntil: now + r.lockTimeout}, now)
}

func (r *refTable) learn(key tables.Key, p *netsim.Port, now time.Duration) {
	r.write(key, Entry{Port: p, State: StateLearned, Expires: now + r.learnedTimeout}, now)
}

func (r *refTable) get(key tables.Key, now time.Duration) (Entry, bool) {
	e, ok := r.live(key, now)
	if ok {
		r.touch(e)
	}
	return e.Entry, ok
}

func (r *refTable) guard(key tables.Key, now time.Duration) {
	if e, ok := r.live(key, now); ok {
		e.LockedUntil = now + r.lockTimeout
		e.Expires = max(e.Expires, e.LockedUntil)
		r.touch(e)
		r.entries[key] = e
	}
}

func (r *refTable) refresh(key tables.Key, now time.Duration) {
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

func (r *refTable) delete(key tables.Key) {
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

func (r *refTable) snapshot(now time.Duration) map[tables.Key]Entry {
	out := map[tables.Key]Entry{}
	for key, e := range r.entries {
		if !r.dead(e, now) {
			out[key] = e.Entry
		}
	}
	return out
}

// modelStream is one kind of operation sequence the table serves.
type modelStream struct {
	name string
	keys []tables.Key
	// mac drives the packed-MAC methods (LockKey, LearnKey, ...), whose
	// writes skip multicast and zero MACs; otherwise the two-word methods
	// (Lock, Learn, ...) run, whose writes skip only the zero Key.
	mac bool
	// learnedOnly is the learning switch's and STP's use: no locks and
	// no guards, and the learned timeout switches between the normal and
	// a fast value mid-run, as STP's topology-change aging does.
	learnedOnly bool
}

func modelStreams() []modelStream {
	var mac []tables.Key
	for i := 1; i <= 64; i++ {
		mac = append(mac, macKey(layers.HostMAC(i).Uint64()))
	}
	mac = append(mac, tables.Key{}, macKey(layers.BroadcastMAC.Uint64())) // rejected by writes
	// Pair keys: 8 × 8 halves, the zero half included (a legal TCP-Path
	// tuple encoding); only the all-zero Key is rejected.
	var pair []tables.Key
	for hi := uint64(0); hi < 8; hi++ {
		for lo := uint64(0); lo < 8; lo++ {
			pair = append(pair, tables.Key{Hi: hi * 0x0200_0000_0001, Lo: lo << 32})
		}
	}
	return []modelStream{
		{name: "mac", keys: mac, mac: true},
		{name: "pair", keys: pair},
		{name: "learned", keys: mac, mac: true, learnedOnly: true},
	}
}

// TestLockTableMatchesModel drives LockTable and the reference model with
// the same seeded operation streams — MAC keys, pair keys with zero
// halves, and the learned-only use with a changing learned timeout —
// unbounded and bounded under LRU and clock, and compares every
// observable after every operation.
func TestLockTableMatchesModel(t *testing.T) {
	const (
		lockTimeout    = 2 * time.Millisecond
		learnedTimeout = 40 * time.Millisecond
		fastTimeout    = 6 * time.Millisecond
		ops            = 30000
	)
	ports := boundPorts(4)
	for _, bound := range []tables.Config{
		{},
		{Capacity: 24, Policy: tables.PolicyLRU},
		{Capacity: 24, Policy: tables.PolicyClock},
	} {
		name := fmt.Sprintf("%s-%d", bound.Policy, bound.Capacity)
		t.Run(name, func(t *testing.T) {
			for _, st := range modelStreams() {
				t.Run(st.name, func(t *testing.T) {
					runModelStream(t, st, bound, lockTimeout, learnedTimeout, fastTimeout, ops, ports)
				})
			}
		})
	}
}

func runModelStream(t *testing.T, st modelStream, bound tables.Config,
	lockTimeout, learnedTimeout, fastTimeout time.Duration, ops int, ports []*netsim.Port) {
	tb := NewBoundedLockTable(lockTimeout, learnedTimeout, bound)
	ref := newRefTable(lockTimeout, learnedTimeout, bound)
	// writable applies the packed-MAC methods' junk rule to the model.
	writable := func(key tables.Key) bool { return !st.mac || !junkMAC(key.Hi) }
	rng := rand.New(rand.NewSource(11))
	now := time.Duration(0)
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(400)) * time.Microsecond
		key := st.keys[rng.Intn(len(st.keys))]
		p := ports[rng.Intn(len(ports))]
		x := rng.Intn(100)
		if st.learnedOnly {
			switch {
			case x < 25:
				x = 25 // lock becomes learn
			case x >= 45 && x < 55:
				x = 99 // guard becomes a learned-timeout switch
			}
		}
		var op string
		switch {
		case x < 25:
			op = "lock"
			if st.mac {
				tb.LockKey(key.Hi, p, now)
			} else {
				tb.Lock(key, p, now)
			}
			if writable(key) {
				ref.lock(key, p, now)
			}
		case x < 45:
			op = "learn"
			if st.mac {
				tb.LearnKey(key.Hi, p, now)
			} else {
				tb.Learn(key, p, now)
			}
			if writable(key) {
				ref.learn(key, p, now)
			}
		case x < 55 && st.mac:
			op = "guard"
			tb.GuardKey(key.Hi, now)
			ref.guard(key, now)
		case x < 70:
			op = "refresh"
			if st.mac {
				tb.RefreshKey(key.Hi, now)
			} else {
				tb.Refresh(key, now)
			}
			ref.refresh(key, now)
		case x < 90:
			op = "get"
		case x < 95 && st.mac:
			op = "delete"
			tb.DeleteKey(key.Hi)
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
		case st.learnedOnly:
			op = "timeout"
			d := learnedTimeout
			if ref.learnedTimeout == learnedTimeout {
				d = fastTimeout
			}
			tb.SetLearnedTimeout(d)
			ref.learnedTimeout = d
		default:
			op = "reset"
			tb.Reset()
			ref.reset()
		}
		// Every operation ends with a compared Get of its key (a "get"
		// operation is just that): it touches recency on both sides
		// alike.
		got, gok := tb.Get(key, now)
		want, wok := ref.get(key, now)
		if got != want || gok != wok {
			t.Fatalf("op %d (%s): get %x: table (%+v, %v), model (%+v, %v)", i, op, key, got, gok, want, wok)
		}
		if st.learnedOnly && gok && got.State != StateLearned {
			t.Fatalf("op %d (%s): learned-only table holds a %v entry", i, op, got.State)
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
}
