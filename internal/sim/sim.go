// Package sim provides the deterministic discrete-event simulation kernel
// used by every other package in this repository.
//
// The kernel models virtual time as a time.Duration measured from the start
// of the run. Events are callbacks scheduled at absolute virtual times and
// are executed in (time, owner, owner-sequence) order — see Proc — which
// makes every run with the same seed and the same inputs bit-for-bit
// reproducible. The paper's NetFPGA testbed resolves races between flooded
// frame copies in hardware; here the same races are resolved by the
// deterministic event order.
//
// The ordering key deserves a word, because it is what makes the sharded
// parallel engine (DESIGN.md §8) possible. Every event is stamped by the
// Proc that scheduled it: a scheduling identity owned by exactly one
// simulated entity (a node, one direction of a link, or the root driver).
// Ties at equal virtual times break by (owner id, per-owner sequence), and
// both components are functions of that one entity's own deterministic
// history — never of how events from unrelated entities interleave. Two
// events that tie across owners touch disjoint state, so their relative
// order is fixed arbitrarily (by owner id) but consistently. The result is
// an execution order that does not depend on how the fabric is partitioned
// into shards, which is the determinism bedrock the parallel coordinator
// in internal/netsim builds on.
//
// Representation (DESIGN.md §11): events live in a generation-guarded
// arena and the pending queue is a binary heap of pointer-free 24-byte
// entries carrying the full ordering key inline, packed into two words
// (time; owner<<44 | oseq) so one comparison is a branch-free 128-bit
// subtraction. Heap maintenance touches only the contiguous entry slice —
// no pointer chasing, no interface dispatch, no GC write barriers on sift
// moves — and cancellation is a generation bump, with stale entries
// skipped lazily when the queue reaches them. Packing bounds the key:
// owner ids stay below 2^20-1 and each owner issues fewer than 2^44-1
// sequence numbers, and the entry points panic outside those limits.
// Run, RunUntil and RunWindowKey share one event loop: pop the heap head
// while its key sorts below the caller's bound, skip it if stale, execute
// it. The heap is the only place a pending event lives, so that loop's
// order is the (time, owner, oseq) order by construction.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// DefaultEventLimit bounds the number of events a single Run may process.
// It exists purely as a runaway-loop backstop for buggy protocols (for
// example a bridge that floods its own flood); well-formed simulations stay
// far below it. Use SetEventLimit to raise it for very long runs.
const DefaultEventLimit = 50_000_000

// Timer is a handle to a scheduled event. The zero value is not a valid
// Timer; handles are produced by Engine.At and Engine.After.
type Timer struct {
	eng     *Engine
	at      time.Duration
	idx     int32 // arena slot + 1; 0 = no event
	gen     uint32
	stopped bool
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing: false means the event already ran (or was already stopped).
// Stopping a nil Timer is a no-op that returns false. Cancellation is
// O(1): the arena slot is released under a generation bump and the queue
// entry is skipped when the queue reaches it.
func (t *Timer) Stop() bool {
	if t == nil || t.idx == 0 || t.stopped {
		return false
	}
	e := t.eng
	a := &e.arena[t.idx-1]
	if a.free || a.gen != t.gen {
		return false // already fired
	}
	e.release(t.idx - 1)
	t.stopped = true
	return true
}

// Stopped reports whether the timer was canceled before it fired.
func (t *Timer) Stopped() bool { return t != nil && t.stopped }

// When returns the virtual time the event is (or was) scheduled to fire
// at. A nil or zero Timer has no event and reports zero, mirroring the
// nil-safety of Stop and Stopped.
func (t *Timer) When() time.Duration {
	if t == nil {
		return 0
	}
	return t.at
}

// Runner is the allocation-free event callback: an object whose RunEvent
// method fires when the event comes due. Unlike a closure handed to At,
// a Runner carries its own state, so scheduling one allocates nothing —
// the engine recycles the arena slot after it fires. arg distinguishes
// multiple events pending on the same Runner (netsim uses it to tell a
// serializer-free event from a frame arrival).
type Runner interface {
	RunEvent(arg int32)
}

// event is one arena slot: the payload of a scheduled event. The ordering
// key does not live here — it rides in the queue entry — so heap
// maintenance never touches the arena. Slots are recycled through a free
// list; the generation counter invalidates stale queue entries and Timer
// handles cheaply, which is what makes cancellation O(1) with no heap
// fix-up.
type event struct {
	fn       func()
	runner   Runner // alternative to fn for pooled, closure-free events
	rarg     int32  // argument passed to runner.RunEvent
	gen      uint32 // bumped on release; guards entries and Timer handles
	free     bool
	nextFree int32
}

// entry is one pending event in the queue: the ordering key packed into
// two words plus the generation-guarded arena reference. hi is the
// timestamp (never negative, so its unsigned order is its signed order)
// and lo is owner<<seqBits | oseq, so (time, owner, oseq) order is the
// 128-bit unsigned order of (hi, lo). Entries are 24 pointer-free bytes:
// sift moves are plain memory moves with no GC write barrier, and key
// comparisons stay inside the contiguous slice.
type entry struct {
	hi, lo uint64
	idx    int32
	gen    uint32
}

// Key limits (DESIGN.md §11). Owners and per-owner sequences share the low
// key word; each field's all-ones value is kept out of real keys so that a
// saturated drain bound sorts after every real key at its timestamp.
const (
	seqBits  = 44
	seqMax   = 1<<seqBits - 1      // reserved: owner's bound after every real oseq
	ownerMax = 1<<(64-seqBits) - 1 // reserved: bound after every real owner
)

// packLo packs a real (owner, oseq) pair, panicking when either field is
// out of range.
func packLo(owner, oseq uint64) uint64 {
	if owner >= ownerMax || oseq >= seqMax {
		panic(fmt.Sprintf("sim: event key (owner %d, oseq %d) out of range", owner, oseq))
	}
	return owner<<seqBits | oseq
}

// boundLo packs a drain bound's (owner, oseq), saturating: an out-of-range
// owner sorts after every real owner, an out-of-range oseq after every
// real oseq of its owner.
func boundLo(owner, oseq uint64) uint64 {
	if owner >= ownerMax {
		return math.MaxUint64
	}
	return owner<<seqBits | min(oseq, seqMax)
}

// lessBit is 1 when a's key sorts strictly before b's, else 0: the borrow
// out of the 128-bit subtraction a - b, computed without a branch.
//
//fabric:hotpath
func lessBit(a, b *entry) uint64 {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	return borrow
}

// entryLess orders entries by (time, owner, owner-sequence).
//
//fabric:hotpath
func entryLess(a, b *entry) bool { return lessBit(a, b) != 0 }

// eventHeap is a binary min-heap of entries with the comparison inlined —
// no container/heap interface dispatch on the hot path.
type eventHeap []entry

// push moves a hole up from the new leaf and writes en once.
//
//fabric:hotpath
func (h *eventHeap) push(en entry) {
	q := append(*h, en)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(&en, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = en
	*h = q
}

// popMin is Floyd's bottom-up deletion: the hole left by the root walks
// down to a leaf along the smaller child — one branch-free comparison per
// level — and the last element then sifts up from there, which is short
// because a last element usually belongs near the bottom.
//
//fabric:hotpath
func (h *eventHeap) popMin() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		if l+1 < n {
			l += int(lessBit(&q[l+1], &q[l]))
		}
		q[i] = q[l]
		i = l
	}
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(&last, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
	return top
}

// Proc is a deterministic scheduling identity bound to one Engine: the
// handle a simulated entity (a node, one direction of a link, the root
// driver) schedules its events through. Events stamped by a Proc carry the
// key (time, proc id, per-proc sequence); because the sequence advances
// only with that one entity's own scheduling actions, the key — and
// therefore the global execution order — is independent of how entities
// are distributed across shards. Procs are created by the network layer
// with globally unique ids in construction order, and rebound to a shard's
// engine when the fabric is partitioned.
//
// A Proc is not safe for concurrent use; it is driven by the single
// goroutine executing its engine's events (or by the coordinator while all
// shards are paused).
type Proc struct {
	eng *Engine
	id  uint64
	seq uint64
}

// NewProc creates a scheduling identity with the given globally unique id
// on engine e. Id 0 is reserved for the engine's own root identity, and
// ids must stay below 2^20-1 (the key limits, DESIGN.md §11).
func NewProc(e *Engine, id uint64) *Proc {
	if id == 0 {
		panic("sim: Proc id 0 is reserved for the engine root")
	}
	if id >= ownerMax {
		panic(fmt.Sprintf("sim: Proc id %d out of range (limit %d)", id, ownerMax-1))
	}
	return &Proc{eng: e, id: id}
}

// Rebind moves the identity to another engine (fabric partitioning). The
// per-owner sequence is preserved: the entity's history is what keys its
// events, not the engine that happens to execute them.
func (p *Proc) Rebind(e *Engine) { p.eng = e }

// Engine returns the engine the identity is currently bound to.
func (p *Proc) Engine() *Engine { return p.eng }

// ID returns the owner id stamped into this identity's events.
func (p *Proc) ID() uint64 { return p.id }

// NextSeq consumes and returns the next per-owner sequence number. Normal
// scheduling does this implicitly; the cross-shard transport uses it to
// stamp an arrival's key on the sending side before shipping the event to
// the destination shard. It panics once the identity has used every
// sequence number below 2^44-1 (the key limits, DESIGN.md §11).
func (p *Proc) NextSeq() uint64 {
	s := p.seq
	if s >= seqMax {
		panic("sim: Proc exhausted its 2^44-1 sequence numbers")
	}
	p.seq++
	return s
}

// nextLo consumes the next sequence number and returns the identity's
// packed low key word.
//
//fabric:hotpath
func (p *Proc) nextLo() uint64 { return p.id<<seqBits | p.NextSeq() }

// Now returns the bound engine's current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// At schedules fn at absolute virtual time t under this identity.
func (p *Proc) At(t time.Duration, fn func()) *Timer {
	return p.eng.at(t, p.nextLo(), fn)
}

// After schedules fn d after the bound engine's current time.
func (p *Proc) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return p.At(p.eng.now+d, fn)
}

// Schedule is the pooled, non-cancellable variant of At (see
// Engine.Schedule).
func (p *Proc) Schedule(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	p.eng.scheduleFunc(t, p.nextLo(), fn)
}

// ScheduleRunner enqueues r.RunEvent(arg) at absolute time t under this
// identity (see Engine.ScheduleRunner).
//
//fabric:hotpath
func (p *Proc) ScheduleRunner(t time.Duration, r Runner, arg int32) {
	if r == nil {
		panic("sim: nil event runner")
	}
	p.eng.scheduleRunner(t, p.nextLo(), r, arg)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all protocol code runs inside event callbacks on the
// loop's goroutine, which is how the real dataplane pipeline of a bridge is
// serialized per port anyway. In a sharded fabric there is one Engine per
// shard, each still single-threaded, synchronized by the netsim
// coordinator.
type Engine struct {
	now       time.Duration
	root      Proc
	queue     eventHeap
	arena     []event
	freeHead  int32 // arena free list head, -1 when empty
	rng       *rand.Rand
	seed      int64
	processed uint64
	limit     uint64
	id        int // shard index (0 when unsharded)

	// Key of the event currently executing — the causal stamp the tap
	// buffering layer records so per-shard tap streams can be merged into
	// the one deterministic total order.
	curAt time.Duration
	curLo uint64
}

// New returns an Engine whose random source is seeded with seed. Two engines
// built with the same seed and fed the same schedule produce identical runs.
func New(seed int64) *Engine {
	e := &Engine{
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		limit:    DefaultEventLimit,
		freeHead: -1,
	}
	e.root = Proc{eng: e}
	return e
}

// Root returns the engine's root scheduling identity (owner id 0): the
// identity of driver code outside any simulated entity. Root events sort
// before every entity's events at the same timestamp, which is what lets
// fault injection and experiment phases act as barriers in sharded runs.
func (e *Engine) Root() *Proc { return &e.root }

// ID returns the engine's shard index (0 unless assigned by SetID).
func (e *Engine) ID() int { return e.id }

// SetID assigns the engine's shard index.
func (e *Engine) SetID(id int) { e.id = id }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued (including canceled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// SetEventLimit replaces the runaway-loop backstop. n must be positive.
func (e *Engine) SetEventLimit(n uint64) {
	if n == 0 {
		panic("sim: event limit must be positive")
	}
	e.limit = n
}

// EventLimit returns the runaway-loop backstop (the sharded coordinator
// enforces the control engine's limit across all shards of one run).
func (e *Engine) EventLimit() uint64 { return e.limit }

// At schedules fn to run at absolute virtual time t under the root
// identity. Scheduling in the past is a programming error and panics;
// scheduling at the current time is allowed and runs after all previously
// scheduled root events for that time.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	return e.root.At(t, fn)
}

// alloc takes an arena slot from the free list, growing the arena when it
// is dry.
//
//fabric:hotpath
func (e *Engine) alloc() int32 {
	if e.freeHead >= 0 {
		idx := e.freeHead
		a := &e.arena[idx]
		e.freeHead = a.nextFree
		a.free = false
		return idx
	}
	e.arena = append(e.arena, event{})
	return int32(len(e.arena) - 1)
}

// release invalidates and frees one arena slot. Called before the callback
// runs so the callback may itself schedule into the recycled slot.
//
//fabric:hotpath
func (e *Engine) release(idx int32) {
	a := &e.arena[idx]
	a.gen++
	a.fn = nil
	a.runner = nil
	a.free = true
	a.nextFree = e.freeHead
	e.freeHead = idx
}

// at is the common keyed scheduling path behind Proc.At and Engine.At; lo
// is the packed (owner, oseq) key word.
func (e *Engine) at(t time.Duration, lo uint64, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	idx := e.alloc()
	a := &e.arena[idx]
	a.fn = fn
	e.queue.push(entry{hi: uint64(t), lo: lo, idx: idx, gen: a.gen})
	return &Timer{eng: e, at: t, idx: idx + 1, gen: a.gen}
}

// scheduleFunc enqueues a non-cancellable closure event under the given
// key. No Timer handle exists, so the arena slot recycles the moment it
// fires.
func (e *Engine) scheduleFunc(t time.Duration, lo uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	a := &e.arena[idx]
	a.fn = fn
	e.queue.push(entry{hi: uint64(t), lo: lo, idx: idx, gen: a.gen})
}

// scheduleRunner is scheduleFunc for Runner events: fully allocation-free.
//
//fabric:hotpath
func (e *Engine) scheduleRunner(t time.Duration, lo uint64, r Runner, arg int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	idx := e.alloc()
	a := &e.arena[idx]
	a.runner = r
	a.rarg = arg
	e.queue.push(entry{hi: uint64(t), lo: lo, idx: idx, gen: a.gen})
}

// Schedule runs fn at absolute virtual time t like At, but returns no
// Timer handle: the event cannot be canceled, and in exchange the engine
// recycles the arena slot immediately, so steady-state scheduling does not
// allocate beyond the closure itself. The event carries the root identity.
func (e *Engine) Schedule(t time.Duration, fn func()) {
	e.root.Schedule(t, fn)
}

// ScheduleRunner enqueues r.RunEvent(arg) at absolute virtual time t under
// the root identity. Like Schedule it returns no handle and recycles the
// slot; because the callback is an interface rather than a closure, a
// caller that reuses its Runner objects schedules with zero allocations —
// the netsim hot path depends on this (via Proc.ScheduleRunner).
//
//fabric:hotpath
func (e *Engine) ScheduleRunner(t time.Duration, r Runner, arg int32) {
	e.root.ScheduleRunner(t, r, arg)
}

// ScheduleKeyed enqueues r.RunEvent(arg) at absolute time t with an
// explicit, caller-computed key. This is the cross-shard injection
// primitive: the sending shard stamps an arrival with its link identity's
// (owner, seq) before shipping it, and the coordinator inserts it here
// between windows — the key, not the insertion moment, decides where the
// event sorts, so the destination shard's execution order is independent
// of exchange timing. The key must be one a Proc could have issued: it
// panics on an owner of 2^20-1 or more or an oseq of 2^44-1 or more.
func (e *Engine) ScheduleKeyed(t time.Duration, owner, oseq uint64, r Runner, arg int32) {
	if r == nil {
		panic("sim: nil event runner")
	}
	e.scheduleRunner(t, packLo(owner, oseq), r, arg)
}

// ScheduleKeyedFunc enqueues fn at absolute time t with an explicit,
// caller-computed key (the closure counterpart of ScheduleKeyed). netsim
// uses it to give fault-injection events an entity's partition-independent
// identity while choosing the executing engine separately: the same key
// lands on a shard engine when the fault is shard-local and on the control
// engine (a coordinator barrier) when it spans shards. Its key range
// panics match ScheduleKeyed's.
func (e *Engine) ScheduleKeyedFunc(t time.Duration, owner, oseq uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.scheduleFunc(t, packLo(owner, oseq), fn)
}

// After schedules fn to run d after the current virtual time under the
// root identity. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	return e.root.After(d, fn)
}

// execute runs one validated entry's callback: clock advance, causal
// stamp, slot release (before the call, so the callback can reuse it),
// dispatch.
//
//fabric:hotpath
func (e *Engine) execute(en *entry, a *event) {
	e.now = time.Duration(en.hi)
	e.curAt, e.curLo = e.now, en.lo
	e.processed++
	if r := a.runner; r != nil {
		arg := a.rarg
		e.release(en.idx)
		r.RunEvent(arg)
	} else {
		fn := a.fn
		e.release(en.idx)
		fn()
	}
}

// Step executes the next pending event, if any, and reports whether one ran.
// Canceled events are discarded without counting as a step. The sharded
// coordinator uses it to execute one barrier event at a time; everything
// else runs through drain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		en := e.queue.popMin()
		a := &e.arena[en.idx]
		if a.free || a.gen != en.gen {
			continue // canceled; entry was stale
		}
		e.execute(&en, a)
		return true
	}
	return false
}

// drain is the engine's one event loop: it executes every pending event
// whose key sorts strictly before bound (only bound's key fields are
// read), in (time, owner, oseq) order, and returns how many ran. Events
// the handlers schedule below bound are pushed onto the same heap and run
// in this same loop. It panics once the processed count exceeds stopAt:
// the event limit is hoisted into one precomputed comparison per event.
//
//fabric:hotpath
func (e *Engine) drain(bound entry, stopAt uint64) int {
	n := 0
	for len(e.queue) > 0 && entryLess(&e.queue[0], &bound) {
		en := e.queue.popMin()
		a := &e.arena[en.idx]
		if a.free || a.gen != en.gen {
			continue // canceled; entry was stale
		}
		e.execute(&en, a)
		n++
		if e.processed > stopAt {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v — probable forwarding loop", e.limit, e.now))
		}
	}
	return n
}

// maxBound is the exclusive drain bound above every real key.
var maxBound = entry{hi: math.MaxInt64, lo: math.MaxUint64}

// Run executes events until the queue drains. It panics if the event limit
// is exceeded, which in practice means a protocol is generating events
// faster than it consumes them (a forwarding loop).
func (e *Engine) Run() {
	e.drain(maxBound, e.processed+e.limit)
}

// RunUntil executes every event scheduled at or before t, then advances the
// clock to exactly t. It panics on event-limit overrun like Run.
func (e *Engine) RunUntil(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	// Inclusive of events at exactly t: the exclusive bound is the first
	// key of t+1 (saturating at the horizon).
	bound := entry{hi: uint64(t + 1)}
	if t == math.MaxInt64 {
		bound = maxBound
	}
	e.drain(bound, e.processed+e.limit)
	e.now = t
}

// RunFor executes events for the next d of virtual time (RunUntil(Now()+d)).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// peek returns the timestamp of the next live event, discarding stale
// entries at the heap head.
func (e *Engine) peek() (time.Duration, bool) {
	for len(e.queue) > 0 {
		h := &e.queue[0]
		if a := &e.arena[h.idx]; a.free || a.gen != h.gen {
			e.queue.popMin()
			continue
		}
		return time.Duration(h.hi), true
	}
	return 0, false
}

// NextKey returns the full ordering key of the next pending live event.
// The coordinator uses it to pre-stamp shard engines before executing a
// barrier event, so taps the barrier emits carry the barrier's key.
func (e *Engine) NextKey() (at time.Duration, owner, oseq uint64, ok bool) {
	if _, live := e.peek(); !live {
		return 0, 0, 0, false
	}
	h := &e.queue[0]
	return time.Duration(h.hi), h.lo >> seqBits, h.lo & seqMax, true
}

// CurKey returns the ordering key of the event currently (or most
// recently) executing. The netsim tap layer records it with every buffered
// tap event so per-shard streams merge into the deterministic total order.
func (e *Engine) CurKey() (at time.Duration, owner, oseq uint64) {
	return e.curAt, e.curLo >> seqBits, e.curLo & seqMax
}

// RunWindowKey executes every event whose full ordering key sorts
// strictly before (at, owner, oseq) and reports how many ran. It is the
// per-shard half of one conservative synchronization window: the
// coordinator guarantees no other shard can inject an event below the
// bound, so everything below it is safe to run. The key-exact bound is
// what lets a pending coordinator barrier carry an entity identity
// (owner > 0): shard events at the barrier's own timestamp with smaller
// keys must still run inside the window, exactly where the single-engine
// run would have executed them. Unlike RunUntil it does not advance the
// clock to the bound. The event-limit backstop for sharded runs lives in
// the coordinator (it spans all shards of one run), so the per-engine
// check is disarmed here. The bound saturates: an owner of 2^20-1 or
// more sorts after every real owner at its timestamp, an oseq of 2^44-1
// or more after every real oseq of its owner.
func (e *Engine) RunWindowKey(at time.Duration, owner, oseq uint64) int {
	if at < 0 {
		return 0 // every key sorts at or after time zero
	}
	return e.drain(entry{hi: uint64(at), lo: boundLo(owner, oseq)}, math.MaxUint64)
}

// SetNow advances the clock to exactly t without running anything. It
// panics when t is in the past or when an event older than t is still
// pending — the coordinator uses it to line all shards up on a barrier
// timestamp after their queues have been drained below it.
func (e *Engine) SetNow(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: SetNow(%v) before now %v", t, e.now))
	}
	if next, ok := e.peek(); ok && next < t {
		panic(fmt.Sprintf("sim: SetNow(%v) with event pending at %v", t, next))
	}
	e.now = t
}
