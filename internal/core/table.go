// Package core implements the paper's contribution: ARP-Path (FastPath)
// low-latency transparent bridges. Bridges exploit the race between flooded
// copies of an ARP Request to lock the minimum-latency path toward the
// source (§2.1.1), confirm it with the unicast ARP Reply (§2.1.2), forward
// all traffic over the established symmetric paths (§2.1.3), and repair
// broken paths with PathFail / PathRequest / PathReply control frames
// (§2.1.4). The optional in-switch ARP Proxy (§2.2, EtherProxy [5])
// suppresses redundant ARP floods.
package core

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// EntryState is the state of a locking-table entry.
type EntryState uint8

// Entry states.
const (
	// StateLocked marks an address locked to the port where the first copy
	// of a broadcast arrived; the race window. Frames from that address
	// arriving on other ports are discarded while the lock is live.
	StateLocked EntryState = iota
	// StateLearned marks a confirmed path entry (the ARP/Path Reply passed
	// through, or traffic refreshed it).
	StateLearned
)

// String names the state.
func (s EntryState) String() string {
	switch s {
	case StateLocked:
		return "locked"
	case StateLearned:
		return "learned"
	default:
		return "state(?)"
	}
}

// Entry is one locking-table binding.
type Entry struct {
	Port    *netsim.Port
	State   EntryState
	Expires time.Duration
	// LockedUntil is the end of the race window. While it lies in the
	// future, the binding's port must not move: copies of the flood
	// arriving on other ports are discarded even if the entry has already
	// been confirmed (learned) by the returning reply. Without this guard
	// a slow race copy arriving after confirmation would steal the lock
	// and drag the path onto the slower branch.
	LockedUntil time.Duration
}

// Guarded reports whether the race window is still open at time now.
func (e Entry) Guarded(now time.Duration) bool { return now < e.LockedUntil }

// tableEntry is the stored form: the public Entry plus the generation of
// its port at bind time. A port's generation advances on FlushPort, which
// kills every entry bound to it in O(1) without touching the table. The
// portState pointer is cached in the entry so the hot-path liveness check
// costs a pointer chase, not a port-table search.
type tableEntry struct {
	Entry
	gen uint32
	th  tables.Handle // recency-tracker handle; 0 when untracked
	ps  *portState
}

// portState is the per-port side table backing constant-time flushes.
type portState struct {
	port *netsim.Port
	gen  uint32 // current generation; entries with an older gen are dead
	live int    // resident entries bound to this port at the current gen
}

// LockTable is the ARP-Path locking table: MAC → (port, locked|learned,
// expiry). It is the bridge's only forwarding state — there is no routing
// protocol and no tree (§1).
//
// The table is a tables.Map keyed by the uint64-packed MAC
// (layers.MAC.Uint64): the simulator decodes the packed keys once per
// frame into the FrameView, and each operation probes the compact
// open-addressing index once and rewrites the entry in place — the
// software counterpart of the NetFPGA bridge's hardware hash table.
// Expiry is lazy (checked on access) and link failures are handled by
// per-port generation counters, so no operation on the hot path scans
// the table.
//
// Production bounds (DESIGN.md §12): the table may be capacity-bounded
// with an LRU or clock eviction policy (internal/tables). The bound counts
// stored entries — live bindings and flushed-generation corpses alike — so
// it bounds actual memory, not just Len(). Corpses and expired entries are
// additionally reclaimed by an amortized sweep (one full pass per learned
// timeout, proxyCache-style) so even the unbounded configuration cannot
// leak under churn.
type LockTable struct {
	lockTimeout    time.Duration
	learnedTimeout time.Duration
	capacity       int
	tracker        *tables.Tracker[uint64] // nil for the timeout baseline
	entries        *tables.Map[tableEntry]
	ports          []*portState // a bridge has a handful of ports: scanned
	resident       int          // stored entries whose port generation is current

	evictions uint64        // capacity evictions of live entries (not corpse reclaim)
	peak      int           // high-water mark of Entries()
	nextSweep time.Duration // next amortized FlushExpired deadline

	// One-slot cache for the port side table: a bridge stores runs of
	// entries against the same handful of ports, so this turns the
	// per-store port search into a pointer compare.
	lastPS *portState
}

// NewLockTable builds an empty unbounded table with the two ARP-Path
// timeouts: the short race window for locked entries and the long lifetime
// for confirmed (learned) entries.
func NewLockTable(lockTimeout, learnedTimeout time.Duration) *LockTable {
	return NewBoundedLockTable(lockTimeout, learnedTimeout, tables.Config{})
}

// NewBoundedLockTable builds an empty table with a capacity bound and
// eviction policy on top of the timeouts. The zero Config is the unbounded
// timeout baseline (exactly NewLockTable).
func NewBoundedLockTable(lockTimeout, learnedTimeout time.Duration, bound tables.Config) *LockTable {
	if lockTimeout <= 0 || learnedTimeout <= 0 {
		panic("core: timeouts must be positive")
	}
	if err := bound.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	t := &LockTable{
		lockTimeout:    lockTimeout,
		learnedTimeout: learnedTimeout,
		capacity:       bound.Capacity,
		entries:        tables.NewMap[tableEntry](bound.Capacity),
	}
	if bound.Tracked() {
		t.tracker = tables.NewTracker[uint64](bound.Policy)
	}
	return t
}

func (t *LockTable) port(p *netsim.Port) *portState {
	if st := t.lastPS; st != nil && st.port == p {
		return st
	}
	for _, st := range t.ports {
		if st.port == p {
			t.lastPS = st
			return st
		}
	}
	st := &portState{port: p}
	t.ports = append(t.ports, st)
	t.lastPS = st
	return st
}

// dead reports whether a stored entry is no longer valid at now: past its
// expiry, or bound to a port generation that has been flushed.
func (t *LockTable) dead(e *tableEntry, now time.Duration) bool {
	return e.Expires <= now || e.gen != e.ps.gen
}

// evict removes the stored entry at dense index i, maintaining the
// residency counters. Dense indices held by the caller are invalidated.
func (t *LockTable) evict(i int32) {
	e := t.entries.Val(i)
	if e.gen == e.ps.gen {
		e.ps.live--
		t.resident--
	}
	if t.tracker != nil {
		t.tracker.Remove(e.th)
	}
	t.entries.Delete(i)
}

// maybeSweep runs the amortized corpse sweep: at most one full
// FlushExpired per learned timeout, charged to the write that crossed the
// deadline (proxyCache's discipline). Callers must invoke it before
// looking up the previous entry — the sweep may evict the very key about
// to be overwritten.
func (t *LockTable) maybeSweep(now time.Duration) {
	if now >= t.nextSweep {
		t.FlushExpired(now)
		t.nextSweep = now + t.learnedTimeout
	}
}

// makeRoom enforces the capacity bound before a new key is inserted.
// Victims come from the recency tracker in deterministic order; dead
// entries (corpses, expired) are reclaimed for free, live unguarded
// entries are force-evicted (counted), and entries inside their §2.1.1
// race window are never evicted — moving a binding mid-race would reopen
// the loop/duplication hazards the lock exists to prevent. Guarded
// rejections are budgeted (tables.RejectBudget): when the budget runs out
// the table admits over capacity, keeping each insert O(1) even when open
// race windows dominate the table; the overshoot is bounded by the number
// of concurrently open windows.
func (t *LockTable) makeRoom(now time.Duration) {
	if t.tracker == nil || t.capacity <= 0 {
		return
	}
	for rejects := tables.RejectBudget; t.entries.Len() >= t.capacity; {
		h, ok := t.tracker.Victim()
		if !ok {
			return
		}
		i := t.entries.Find(t.tracker.Key(h))
		e := t.entries.Val(i)
		switch {
		case t.dead(e, now):
			t.evict(i)
		case !e.Guarded(now):
			t.evictions++
			t.evict(i)
		default:
			t.tracker.Reject(h)
			if rejects--; rejects <= 0 {
				return
			}
		}
	}
}

// store writes e under key. i is key's dense index from a lookup the
// caller already paid for (0 when absent): an existing entry is rewritten
// in place, a new one is inserted after the capacity bound made room.
// Residency counters, the recency tracker and the peak are maintained.
func (t *LockTable) store(key uint64, i int32, e Entry, now time.Duration) {
	if i == 0 && t.capacity > 0 && t.entries.Len() >= t.capacity {
		t.makeRoom(now)
	}
	st := t.port(e.Port)
	st.live++
	t.resident++
	ne := tableEntry{Entry: e, gen: st.gen, ps: st}
	if i != 0 {
		p := t.entries.Val(i)
		if p.gen == p.ps.gen {
			p.ps.live--
			t.resident--
		}
		ne.th = p.th
		if t.tracker != nil {
			t.tracker.Touch(ne.th)
		}
		*p = ne
		return
	}
	if t.tracker != nil {
		ne.th = t.tracker.Insert(key)
	}
	t.entries.Insert(key, ne)
	if n := t.entries.Len(); n > t.peak {
		t.peak = n
	}
}

// live returns the dense index of key's live entry, or 0 when there is
// none; a dead entry found on the way is evicted lazily.
//
//fabric:hotpath
func (t *LockTable) live(key uint64, now time.Duration) int32 {
	i := t.entries.Find(key)
	if i != 0 && t.dead(t.entries.Val(i), now) {
		t.evict(i)
		return 0
	}
	return i
}

// GetKey returns the live entry for a packed key, evicting it lazily if
// expired or flushed.
//
//fabric:hotpath
func (t *LockTable) GetKey(key uint64, now time.Duration) (Entry, bool) {
	i := t.live(key, now)
	if i == 0 {
		return Entry{}, false
	}
	e := t.entries.Val(i)
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
	return e.Entry, true
}

// Get returns the live entry for mac, evicting it lazily if expired.
func (t *LockTable) Get(mac layers.MAC, now time.Duration) (Entry, bool) {
	return t.GetKey(mac.Uint64(), now)
}

// LockKey binds a packed key to port in the locked state, starting (or
// restarting) the race window.
func (t *LockTable) LockKey(key uint64, port *netsim.Port, now time.Duration) {
	if layers.KeyIsMulticast(key) || key == 0 {
		return
	}
	t.maybeSweep(now)
	t.store(key, t.entries.Find(key), Entry{
		Port:        port,
		State:       StateLocked,
		Expires:     now + t.lockTimeout,
		LockedUntil: now + t.lockTimeout,
	}, now)
}

// Lock binds mac to port in the locked state, starting (or restarting)
// the race window.
func (t *LockTable) Lock(mac layers.MAC, port *netsim.Port, now time.Duration) {
	t.LockKey(mac.Uint64(), port, now)
}

// LearnKey binds a packed key to port in the learned state (path
// confirmed). A confirmation on the entry's existing port preserves the
// remaining race window so late flood copies stay filtered.
//
//fabric:hotpath
func (t *LockTable) LearnKey(key uint64, port *netsim.Port, now time.Duration) {
	if layers.KeyIsMulticast(key) || key == 0 {
		return
	}
	t.maybeSweep(now)
	i := t.entries.Find(key)
	lockedUntil := time.Duration(0)
	if i != 0 {
		if old := t.entries.Val(i); old.Port == port && !t.dead(old, now) {
			lockedUntil = old.LockedUntil
		}
	}
	t.store(key, i, Entry{
		Port:        port,
		State:       StateLearned,
		Expires:     now + t.learnedTimeout,
		LockedUntil: lockedUntil,
	}, now)
}

// Learn binds mac to port in the learned state (path confirmed).
func (t *LockTable) Learn(mac layers.MAC, port *netsim.Port, now time.Duration) {
	t.LearnKey(mac.Uint64(), port, now)
}

// GuardKey re-arms the race window on the current binding without moving
// the port, shortening the entry's remaining lifetime, or downgrading a
// learned entry. Used when a bridge originates a PathRequest on a host's
// behalf: copies of that flood returning over other ports must be
// filtered exactly as for a host-sent request, but the bridge must not
// forget its own attached host if the repair goes unanswered.
func (t *LockTable) GuardKey(key uint64, now time.Duration) {
	i := t.live(key, now)
	if i == 0 {
		return
	}
	// The port does not move, so the residency counters are unchanged and
	// the entry is rewritten in place.
	e := t.entries.Val(i)
	e.LockedUntil = now + t.lockTimeout
	if e.Expires < e.LockedUntil {
		e.Expires = e.LockedUntil
	}
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
}

// Guard re-arms the race window on mac's current binding.
func (t *LockTable) Guard(mac layers.MAC, now time.Duration) {
	t.GuardKey(mac.Uint64(), now)
}

// RefreshKey extends the current entry's lifetime without changing its
// state or port. Refreshing a missing or expired entry is a no-op.
//
//fabric:hotpath
func (t *LockTable) RefreshKey(key uint64, now time.Duration) {
	i := t.live(key, now)
	if i == 0 {
		return
	}
	// Same port, same generation: rewrite in place, counters unchanged.
	e := t.entries.Val(i)
	switch e.State {
	case StateLocked:
		e.Expires = now + t.lockTimeout
	case StateLearned:
		e.Expires = now + t.learnedTimeout
	}
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
}

// Refresh extends the current entry's lifetime without changing its state
// or port.
func (t *LockTable) Refresh(mac layers.MAC, now time.Duration) {
	t.RefreshKey(mac.Uint64(), now)
}

// DeleteKey removes a packed key's entry (stale-path teardown during
// repair).
func (t *LockTable) DeleteKey(key uint64) {
	if i := t.entries.Find(key); i != 0 {
		t.evict(i)
	}
}

// Delete removes mac's entry.
func (t *LockTable) Delete(mac layers.MAC) { t.DeleteKey(mac.Uint64()) }

// FlushPort invalidates every entry bound to port (link failure) in O(1)
// by advancing the port's generation; the corpses are reclaimed lazily on
// access or by FlushExpired. It returns the number of entries
// invalidated.
func (t *LockTable) FlushPort(port *netsim.Port) int {
	st := t.port(port)
	n := st.live
	st.gen++
	st.live = 0
	t.resident -= n
	return n
}

// Len returns the number of live-generation entries, including expired
// ones that have not been touched since their deadline.
func (t *LockTable) Len() int { return t.resident }

// Entries returns the number of stored entries including
// flushed-generation corpses awaiting reclamation: the table's actual
// memory footprint, the quantity the capacity bound and the leak
// regression tests are about.
func (t *LockTable) Entries() int { return t.entries.Len() }

// PortStates returns the number of per-port side-table records, live and
// idle. Idle records are reclaimed by FlushExpired.
func (t *LockTable) PortStates() int { return len(t.ports) }

// Evictions returns the cumulative count of live entries force-evicted by
// the capacity bound (corpse reclamation is not an eviction).
func (t *LockTable) Evictions() uint64 { return t.evictions }

// PeakEntries returns the high-water mark of Entries() over the table's
// lifetime: the occupancy figure the eviction-pressure experiment plots.
func (t *LockTable) PeakEntries() int { return t.peak }

// Reset drops every entry and every port generation: the table is as
// empty as at construction. This is total state loss (a bridge restart),
// not a link event — use FlushPort for those. Lifetime statistics
// (evictions, peak occupancy) survive.
func (t *LockTable) Reset() {
	t.entries.Reset()
	clear(t.ports)
	t.ports = t.ports[:0]
	t.resident = 0
	t.nextSweep = 0
	t.lastPS = nil
	if t.tracker != nil {
		t.tracker.Reset()
	}
}

// FlushExpired sweeps all expired and flushed entries eagerly, then
// reclaims port-state records with no surviving entries (after the sweep,
// a zero live count proves no entry references the record — everything
// left is live-generation). The dataplane never calls this directly; the
// amortized sweep does, bounding memory for long-lived tables, and
// experiments call it for exact counts.
func (t *LockTable) FlushExpired(now time.Duration) {
	// Backwards, so each delete's swap-in comes from the visited tail.
	for i := int32(t.entries.Len()); i > 0; i-- {
		if t.dead(t.entries.Val(i), now) {
			t.evict(i)
		}
	}
	kept := t.ports[:0]
	for _, st := range t.ports {
		if st.live > 0 {
			kept = append(kept, st)
		} else if t.lastPS == st {
			t.lastPS = nil
		}
	}
	clear(t.ports[len(kept):])
	t.ports = kept
}

// Snapshot returns a copy of the live entries; used by experiments to
// reconstruct the path a flow has locked (Figure 1's bubbles).
func (t *LockTable) Snapshot(now time.Duration) map[layers.MAC]Entry {
	out := make(map[layers.MAC]Entry, t.entries.Len())
	for i := int32(1); i <= int32(t.entries.Len()); i++ {
		if e := t.entries.Val(i); !t.dead(e, now) {
			out[layers.MACFromUint64(t.entries.Key(i))] = e.Entry
		}
	}
	return out
}
