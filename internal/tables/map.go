package tables

// Key is a forwarding-table key: two 64-bit words. MAC tables store the
// packed address (layers.MAC.Uint64) in Hi with Lo = 0; Flow-Path pair
// keys pack the source and destination MACs, TCP-Path connection keys
// the IPv4 addresses and the TCP ports. The zero Key is reserved.
type Key struct {
	Hi, Lo uint64
}

// Map is a compact open-addressing hash table from a non-zero Key to V:
// the software analogue of the NetFPGA bridge's fixed hardware hash
// table.
//
// Layout: entries live in two dense arrays, keys and vals, and an index
// array of int32 slots maps a key's hash position to its dense index.
// Slots use linear probing at load ≤ 1/2 and backward-shift deletion
// (no tombstones); the dense arrays use swap-remove, so they stay packed
// and a resident entry costs its key, its value and two to four slot
// words. Dense index 0 is a sentinel holding the zero Key and a zero
// value: an empty slot is simply slot value 0, so a probe ends on either
// a key match or the sentinel with one comparison per slot, and the zero
// Key — which no table stores (core.LockTable's writes skip it) — always
// reads as absent.
//
// Dense indices are stable until the next Insert or Delete. Iterating
// dense indices from Len down to 1 and deleting as it goes is safe: a
// delete moves the last entry, already visited, into the hole.
//
// Determinism: layout and iteration order are pure functions of the
// operation sequence; nothing depends on Go map order or addresses.
type Map[V any] struct {
	slots []int32 // dense index per slot; 0 = empty
	keys  []Key   // keys[0] = Key{} is the sentinel
	vals  []V     // vals[0] is the zero sentinel
	shift uint8   // 64 - log2(len(slots))
	bound int     // expected maximum Len, 0 if none: caps dense growth
}

// minSlots is the smallest index array (a power of two).
const minSlots = 8

// NewMap returns an empty map. bound is the number of entries the owner
// normally holds at most (a bounded table's capacity), or 0: the dense
// arrays double as they fill but stop at exactly bound entries, so a
// full bounded table carries no slack, and one that never fills never
// pays for its capacity. Growth past bound falls back to doubling.
func NewMap[V any](bound int) *Map[V] {
	m := &Map[V]{
		keys:  make([]Key, 1, 2),
		vals:  make([]V, 1, 2),
		bound: max(bound, 0),
	}
	m.setSlots(minSlots)
	return m
}

// setSlots installs a fresh empty index array of n slots (a power of two).
func (m *Map[V]) setSlots(n int) {
	m.slots = make([]int32, n)
	m.shift = 64
	for ; n > 1; n >>= 1 {
		m.shift--
	}
}

// home returns key's home slot (Fibonacci hashing: the high bits of the
// product mix every key bit, which the low-entropy packed MACs need). Lo
// is multiplied by a second odd constant before it is folded into Hi, so
// the halves of a pair key do not cancel; a MAC key (Lo = 0) hashes
// exactly as its packed address alone.
func (m *Map[V]) home(key Key) int {
	return int(((key.Hi ^ key.Lo*0xC2B2AE3D27D4EB4F) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return len(m.keys) - 1 }

// Find returns key's dense index, or 0 when key is absent (or zero).
//
//fabric:hotpath
func (m *Map[V]) Find(key Key) int32 {
	mask := len(m.slots) - 1
	for s := m.home(key); ; s = (s + 1) & mask {
		i := m.slots[s]
		if m.keys[i] == key || i == 0 {
			return i
		}
	}
}

// Key returns the key at dense index i.
func (m *Map[V]) Key(i int32) Key { return m.keys[i] }

// Val returns the value at dense index i for in-place rewriting. The
// pointer is invalidated by the next Insert or Delete.
//
//fabric:hotpath
func (m *Map[V]) Val(i int32) *V { return &m.vals[i] }

// Insert stores v under key and returns its dense index. key must be
// non-zero and absent (callers Find first).
func (m *Map[V]) Insert(key Key, v V) int32 {
	if key == (Key{}) {
		panic("tables: Map.Insert of the reserved zero key")
	}
	if 2*len(m.keys) > len(m.slots) {
		m.grow()
	}
	if len(m.keys) == cap(m.keys) {
		m.growDense()
	}
	i := int32(len(m.keys))
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, v)
	m.place(i)
	return i
}

// place puts dense index i in the first empty slot at or after its home.
func (m *Map[V]) place(i int32) {
	mask := len(m.slots) - 1
	s := m.home(m.keys[i])
	for m.slots[s] != 0 {
		s = (s + 1) & mask
	}
	m.slots[s] = i
}

// grow doubles the index array and re-slots every entry; the dense
// arrays are untouched.
func (m *Map[V]) grow() {
	m.setSlots(2 * len(m.slots))
	for i := int32(1); i < int32(len(m.keys)); i++ {
		m.place(i)
	}
}

// growDense doubles the dense arrays' capacity, clamped to the bound
// (plus the sentinel) while they are below it.
func (m *Map[V]) growDense() {
	m.keys = grow(m.keys, m.bound+1)
	m.vals = grow(m.vals, m.bound+1)
}

// grow returns a copy of s with doubled capacity, clamped to limit while
// s is below it: a bounded table's arrays stop at exactly their bound
// and resume doubling only past it.
func grow[T any](s []T, limit int) []T {
	n := 2 * cap(s)
	if cap(s) < limit && n > limit {
		n = limit
	}
	return append(make([]T, 0, n), s...)
}

// slotOf returns the slot holding dense index i.
func (m *Map[V]) slotOf(i int32) int {
	mask := len(m.slots) - 1
	s := m.home(m.keys[i])
	for m.slots[s] != i {
		s = (s + 1) & mask
	}
	return s
}

// Delete removes the entry at dense index i (1 ≤ i ≤ Len). The last
// entry moves into index i.
func (m *Map[V]) Delete(i int32) {
	m.unslot(m.slotOf(i))
	last := int32(len(m.keys) - 1)
	if i != last {
		m.slots[m.slotOf(last)] = i
		m.keys[i] = m.keys[last]
		m.vals[i] = m.vals[last]
	}
	var zero V
	m.vals[last] = zero // drop references for the GC
	m.keys = m.keys[:last]
	m.vals = m.vals[:last]
}

// unslot empties slot s by backward shift: each later entry of the probe
// run moves back into the hole unless that would put it before its home.
func (m *Map[V]) unslot(s int) {
	mask := len(m.slots) - 1
	for j := s; ; {
		m.slots[s] = 0
		for {
			j = (j + 1) & mask
			i := m.slots[j]
			if i == 0 {
				return
			}
			// The entry at j may fill the hole at s iff its home does not
			// lie cyclically in (s, j].
			if (j-m.home(m.keys[i]))&mask >= (j-s)&mask {
				m.slots[s] = i
				s = j
				break
			}
		}
	}
}

// Reset removes every entry, keeping the allocated arrays.
func (m *Map[V]) Reset() {
	clear(m.slots)
	clear(m.vals)
	m.keys = m.keys[:1]
	m.vals = m.vals[:1]
}
