package tables

import (
	"math/rand"
	"testing"
)

// checkMap verifies the structural invariants: the dense arrays agree in
// length and keep the sentinel, load stays ≤ 1/2, every dense index sits
// in exactly one slot, and every slot between an entry's home and its
// position is occupied (linear probing finds it).
func checkMap[V any](t *testing.T, m *Map[V]) {
	t.Helper()
	if len(m.keys) != len(m.vals) || m.keys[0] != (Key{}) {
		t.Fatalf("dense arrays broken: %d keys, %d vals, sentinel %x", len(m.keys), len(m.vals), m.keys[0])
	}
	if 2*m.Len() > len(m.slots) {
		t.Fatalf("load %d/%d above 1/2", m.Len(), len(m.slots))
	}
	mask := len(m.slots) - 1
	seen := make([]bool, len(m.keys))
	for s, i := range m.slots {
		if i == 0 {
			continue
		}
		if seen[i] {
			t.Fatalf("dense index %d in two slots", i)
		}
		seen[i] = true
		for h := m.home(m.keys[i]); h != s; h = (h + 1) & mask {
			if m.slots[h] == 0 {
				t.Fatalf("key %x at slot %d unreachable: slot %d on its probe path is empty", m.keys[i], s, h)
			}
		}
	}
	for i := 1; i < len(m.keys); i++ {
		if !seen[i] {
			t.Fatalf("dense index %d (key %x) has no slot", i, m.keys[i])
		}
	}
}

// shapes are the two key layouts the tables store: a packed MAC (Lo = 0)
// and a pair key whose halves share Hi and differ only in Lo.
var shapes = []struct {
	name string
	key  func(j uint64) Key
}{
	{"mac", func(j uint64) Key { return Key{Hi: j} }},
	{"pair", func(j uint64) Key { return Key{Hi: 0x0200_0000_0007, Lo: j} }},
}

// keysWithHome returns n distinct non-zero keys of the given shape whose
// home slot in an index of the given size is home.
func keysWithHome(slots, home, n int, key func(uint64) Key) []Key {
	probe := NewMap[int](0)
	probe.setSlots(slots)
	var out []Key
	for j := uint64(1); len(out) < n; j++ {
		if k := key(j); probe.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

func TestMapCollisionChain(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			m := NewMap[int](0)
			keys := keysWithHome(len(m.slots), 2, 4, shape.key)
			for j, k := range keys {
				m.Insert(k, j)
				checkMap(t, m)
			}
			for j, k := range keys {
				if i := m.Find(k); i == 0 || *m.Val(i) != j {
					t.Fatalf("chain key %d not found", j)
				}
			}
			// Delete from the middle of the chain: the tail shifts back.
			m.Delete(m.Find(keys[1]))
			checkMap(t, m)
			if m.Find(keys[1]) != 0 {
				t.Fatal("deleted key still found")
			}
			for _, j := range []int{0, 2, 3} {
				if i := m.Find(keys[j]); i == 0 || *m.Val(i) != j {
					t.Fatalf("chain key %d lost after middle delete", j)
				}
			}
			if m.Find(Key{}) != 0 {
				t.Fatal("the reserved zero key must read as absent")
			}
		})
	}
}

func TestMapWrapAroundDelete(t *testing.T) {
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			m := NewMap[int](0)
			last := len(m.slots) - 1
			// Three keys homed at the last slot wrap into slots 0 and 1; a
			// key homed at slot 0 lands behind them at slot 2.
			wrap := keysWithHome(len(m.slots), last, 3, shape.key)
			zero := keysWithHome(len(m.slots), 0, 1, shape.key)[0]
			for j, k := range append(wrap, zero) {
				m.Insert(k, j)
			}
			checkMap(t, m)
			if m.slots[0] == 0 || m.slots[1] == 0 || m.slots[2] == 0 {
				t.Fatalf("probe run did not wrap: slots %v", m.slots)
			}
			m.Delete(m.Find(wrap[0])) // the hole opens at the last slot
			checkMap(t, m)
			for j, k := range append(wrap[1:], zero) {
				if i := m.Find(k); i == 0 || *m.Val(i) != j+1 {
					t.Fatalf("key %x lost after wrap-around delete", k)
				}
			}
			// Every entry moved back one slot, across the boundary: the run
			// now ends at slot 1 and slot 2 is free again.
			if m.slots[last] == 0 || m.slots[0] == 0 || m.slots[1] == 0 || m.slots[2] != 0 {
				t.Fatalf("probe run not shifted back across the wrap: slots %v", m.slots)
			}
			if m.keys[m.slots[1]] != zero {
				t.Fatalf("zero-homed key not at the end of the run: slots %v", m.slots)
			}
		})
	}
}

func TestMapGrowth(t *testing.T) {
	m := NewMap[uint64](0)
	for k := uint64(1); k <= 1000; k++ {
		m.Insert(Key{Hi: k * 0x10001}, k)
		if k&(k-1) == 0 {
			checkMap(t, m)
		}
	}
	checkMap(t, m)
	if m.Len() != 1000 || len(m.slots) != 2048 {
		t.Fatalf("len %d, %d slots; want 1000 in 2048", m.Len(), len(m.slots))
	}
	for k := uint64(1); k <= 1000; k++ {
		if i := m.Find(Key{Hi: k * 0x10001}); i == 0 || *m.Val(i) != k {
			t.Fatalf("key %d lost in growth", k)
		}
	}
	// A bounded map's dense arrays stop at exactly the bound (plus the
	// sentinel) and resume doubling only past it.
	p := NewMap[int](128)
	for k := uint64(1); k <= 128; k++ {
		p.Insert(Key{Hi: k}, 0)
	}
	if len(p.slots) != 256 || cap(p.keys) != 129 || cap(p.vals) != 129 {
		t.Fatalf("full bounded map: %d slots, key cap %d, val cap %d; want 256, 129, 129",
			len(p.slots), cap(p.keys), cap(p.vals))
	}
	p.Insert(Key{Hi: 129}, 0)
	checkMap(t, p)
	if cap(p.keys) != 258 {
		t.Fatalf("growth past the bound: key cap %d, want 258", cap(p.keys))
	}
}

func TestMapDeleteWhileIterating(t *testing.T) {
	m := NewMap[uint64](0)
	for k := uint64(1); k <= 200; k++ {
		m.Insert(Key{Hi: k}, k)
	}
	// Backwards iteration with swap-remove visits every entry exactly once.
	visited := map[uint64]int{}
	for i := int32(m.Len()); i > 0; i-- {
		k := m.Key(i).Hi
		visited[k]++
		if k%3 == 0 {
			m.Delete(i)
		}
	}
	checkMap(t, m)
	if len(visited) != 200 {
		t.Fatalf("visited %d distinct keys, want 200", len(visited))
	}
	for k, n := range visited {
		if n != 1 {
			t.Fatalf("key %d visited %d times", k, n)
		}
	}
	for k := uint64(1); k <= 200; k++ {
		if found := m.Find(Key{Hi: k}) != 0; found != (k%3 != 0) {
			t.Fatalf("key %d present=%v after filtered delete", k, found)
		}
	}
	m.Reset()
	checkMap(t, m)
	if m.Len() != 0 || m.Find(Key{Hi: 1}) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

// TestMapMatchesModel drives random inserts and deletes against a Go map,
// over MAC-shaped keys and pair keys whose halves may be zero.
func TestMapMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMap[int](0)
	model := map[Key]int{}
	for op := 0; op < 20000; op++ {
		k := Key{Hi: uint64(rng.Intn(512) + 1)}
		if rng.Intn(2) == 0 {
			k = Key{Hi: uint64(rng.Intn(8)), Lo: uint64(rng.Intn(64) + 1)}
		}
		i := m.Find(k)
		want, ok := model[k]
		if (i != 0) != ok || (ok && *m.Val(i) != want) {
			t.Fatalf("op %d: Find(%v) = %d, model has %v", op, k, i, ok)
		}
		switch {
		case ok && rng.Intn(2) == 0:
			m.Delete(i)
			delete(model, k)
		case ok:
			*m.Val(i) = op
			model[k] = op
		default:
			m.Insert(k, op)
			model[k] = op
		}
		if op%97 == 0 {
			checkMap(t, m)
		}
		if m.Len() != len(model) {
			t.Fatalf("op %d: Len %d, model %d", op, m.Len(), len(model))
		}
	}
}
