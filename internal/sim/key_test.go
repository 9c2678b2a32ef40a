package sim

import (
	"math"
	"testing"
	"time"
)

// mustPanic reports whether fn panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// TestKeyRangePanics pins the key limits: every entry point that stamps a
// key rejects an owner of 2^20-1 or more and an oseq of 2^44-1 or more,
// and accepts the largest legal values.
func TestKeyRangePanics(t *testing.T) {
	nop := func() {}
	r := &counterRunner{}
	cases := []struct {
		name  string
		fn    func(e *Engine)
		panic bool
	}{
		{"NewProc/max", func(e *Engine) { NewProc(e, ownerMax-1) }, false},
		{"NewProc/limit", func(e *Engine) { NewProc(e, ownerMax) }, true},
		{"NewProc/MaxUint64", func(e *Engine) { NewProc(e, math.MaxUint64) }, true},
		{"NextSeq/max", func(e *Engine) {
			p := NewProc(e, 1)
			p.seq = seqMax - 1
			if s := p.NextSeq(); s != seqMax-1 {
				panic("wrong sequence")
			}
		}, false},
		{"NextSeq/limit", func(e *Engine) {
			p := NewProc(e, 1)
			p.seq = seqMax - 1
			p.NextSeq()
			p.NextSeq()
		}, true},
		{"NextSeq/Schedule", func(e *Engine) {
			p := NewProc(e, 1)
			p.seq = seqMax
			p.Schedule(0, nop)
		}, true},
		{"ScheduleKeyed/max", func(e *Engine) { e.ScheduleKeyed(0, ownerMax-1, seqMax-1, r, 0) }, false},
		{"ScheduleKeyed/owner", func(e *Engine) { e.ScheduleKeyed(0, ownerMax, 0, r, 0) }, true},
		{"ScheduleKeyed/oseq", func(e *Engine) { e.ScheduleKeyed(0, 0, seqMax, r, 0) }, true},
		{"ScheduleKeyed/MaxUint64", func(e *Engine) { e.ScheduleKeyed(0, math.MaxUint64, math.MaxUint64, r, 0) }, true},
		{"ScheduleKeyedFunc/max", func(e *Engine) { e.ScheduleKeyedFunc(0, ownerMax-1, seqMax-1, nop) }, false},
		{"ScheduleKeyedFunc/owner", func(e *Engine) { e.ScheduleKeyedFunc(0, ownerMax, 0, nop) }, true},
		{"ScheduleKeyedFunc/oseq", func(e *Engine) { e.ScheduleKeyedFunc(0, 1, seqMax, nop) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := mustPanic(func() { c.fn(New(1)) }); got != c.panic {
				t.Fatalf("panicked = %v, want %v", got, c.panic)
			}
		})
	}
}

// TestKeyPackRoundTrip schedules single events at zero and at each limit
// of every key component and checks that NextKey and CurKey hand back
// exactly the three values that were scheduled.
func TestKeyPackRoundTrip(t *testing.T) {
	for _, at := range []time.Duration{0, 1, math.MaxInt64} {
		for _, owner := range []uint64{0, 1, 1 << 19, ownerMax - 1} {
			for _, oseq := range []uint64{0, 1, 1 << 43, seqMax - 1} {
				want := execKey{at, owner, oseq}
				e := New(1)
				var cur execKey
				e.ScheduleKeyedFunc(at, owner, oseq, func() {
					a, o, s := e.CurKey()
					cur = execKey{a, o, s}
				})
				a, o, s, ok := e.NextKey()
				if got := (execKey{a, o, s}); !ok || got != want {
					t.Fatalf("NextKey = %+v (ok %v), want %+v", got, ok, want)
				}
				e.RunUntil(math.MaxInt64)
				if cur != want {
					t.Fatalf("CurKey = %+v, want %+v", cur, want)
				}
			}
		}
	}
}

// TestSaturatedBoundsRunExactlyKeysBelow drives RunWindowKey with bounds
// whose owner or oseq is out of range. Such bounds saturate in the packed
// key, and must still run exactly the keys that sort below them under the
// unpacked three-value order.
func TestSaturatedBoundsRunExactlyKeysBelow(t *testing.T) {
	const at = 5 * time.Microsecond
	var keys []execKey
	for _, ts := range []time.Duration{at - 1, at, at + 1} {
		for _, owner := range []uint64{0, 7, ownerMax - 1} {
			for _, oseq := range []uint64{0, 1<<43 + 1, seqMax - 1} {
				keys = append(keys, execKey{ts, owner, oseq})
			}
		}
	}
	bounds := []execKey{
		{at, math.MaxUint64, math.MaxUint64},
		{at, 7, math.MaxUint64},
		{at, 0, math.MaxUint64},
		{at, ownerMax, 0},
		{at, ownerMax - 1, seqMax},
		{at, 7, seqMax - 1},
		{at, 7, 0},
	}
	for _, b := range bounds {
		e := New(1)
		ran := map[execKey]bool{}
		for _, k := range keys {
			e.ScheduleKeyedFunc(k.at, k.owner, k.oseq, func() { ran[k] = true })
		}
		n := e.RunWindowKey(b.at, b.owner, b.oseq)
		want := 0
		for _, k := range keys {
			below := k.less(b)
			if below {
				want++
			}
			if ran[k] != below {
				t.Fatalf("bound %+v: key %+v ran = %v, want %v", b, k, ran[k], below)
			}
		}
		if n != want {
			t.Fatalf("bound %+v: RunWindowKey reported %d events, want %d", b, n, want)
		}
	}
}
