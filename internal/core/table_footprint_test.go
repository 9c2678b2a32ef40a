package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/tables"
)

// TestBoundedTableFootprint gates the memory a full bounded table costs
// per resident entry — index, dense arrays and recency tracker together.
// The discovery-churn workload gives every bridge an LRU-128 lock table,
// so a layout that over-provisions slots or grows its arrays past the
// bound shows up directly in that workload's peak heap.
func TestBoundedTableFootprint(t *testing.T) {
	const (
		nTables  = 256
		capacity = 128
		maxBytes = 180 // heap bytes per resident entry
	)
	ports := boundPorts(4)
	bound := tables.Config{Capacity: capacity, Policy: tables.PolicyLRU}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tbs := make([]*LockTable, nTables)
	for i := range tbs {
		tb := NewBoundedLockTable(time.Millisecond, time.Hour, bound)
		for k := 0; k < capacity; k++ {
			tb.LearnKey(layers.HostMAC(i*capacity+k+1).Uint64(), ports[k%len(ports)], time.Second)
		}
		if tb.Entries() != capacity {
			t.Fatalf("table %d holds %d entries, want %d", i, tb.Entries(), capacity)
		}
		tbs[i] = tb
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tbs)
	perEntry := float64(m1.HeapAlloc-m0.HeapAlloc) / float64(nTables*capacity)
	t.Logf("%.1f heap bytes per resident entry", perEntry)
	if perEntry > maxBytes {
		t.Fatalf("bounded LRU-%d tables cost %.1f heap bytes per resident entry, want ≤ %d",
			capacity, perEntry, maxBytes)
	}
}
