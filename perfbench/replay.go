package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tables"
)

// The replays feed the inputs a traced repetition recorded into each
// layer's public functions in isolation, so a layer's cost is measured
// without the rest of the fabric around it. Each replay runs
// replayRounds times and reports its median.
const replayRounds = 5

// replays is the per-layer cost the replays measured.
type replays struct {
	simNSPerEvent     float64 // bare engine: schedule + pop + dispatch of a no-op event
	hopNS             float64 // netsim: SendFrame admission + delivery on a two-node link
	hopAdmitNS        float64 // the admission part of hopNS
	hopDeliverNetNS   float64 // the delivery part of hopNS, minus its engine events
	lookupNS          float64 // unbounded LockTable.GetKey
	lockNS            float64 // unbounded LockTable.LockKey
	churnNSPerInsert  float64 // bounded-LRU LockTable writes (lock or learn)
	decodeNSPerFrame  float64 // netsim.NewFrame copy + decode + release
	schedRecs, frames int
}

func runReplays(rec *recorder, seed int64) replays {
	r := replays{schedRecs: len(rec.sched), frames: len(rec.frames)}
	r.simNSPerEvent = medianOf(func() float64 { return replayEngine(rec, seed) })
	var admit, deliverNet []float64
	r.hopNS = medianOf(func() float64 {
		a, d, evPerHop := replayLink(rec.frames, seed)
		admit = append(admit, a)
		deliverNet = append(deliverNet, max(d-evPerHop*r.simNSPerEvent, 0))
		return a + d
	})
	r.hopAdmitNS, r.hopDeliverNetNS = median(admit), median(deliverNet)
	r.lookupNS = medianOf(func() float64 { return replayLookup(rec.keys) })
	r.lockNS = medianOf(func() float64 { return replayLock(rec.keys) })
	r.churnNSPerInsert = medianOf(func() float64 { return replayChurn(rec.keys) })
	r.decodeNSPerFrame = medianOf(func() float64 { return replayDecode(rec.frames) })
	return r
}

func medianOf(f func() float64) float64 {
	vs := make([]float64, replayRounds)
	for i := range vs {
		vs[i] = f()
	}
	return median(vs)
}

// engineReplay re-creates the recorded event keys on a bare engine at the
// recorded queue depth: each no-op event schedules the next recorded key,
// so the heap holds depth events throughout, like the fabric's did.
type engineReplay struct {
	e    *sim.Engine
	recs []schedRec
	next int
	seq  uint64
}

func (r *engineReplay) push() {
	rec := r.recs[r.next]
	r.next++
	r.seq++
	r.e.ScheduleKeyed(rec.at, rec.owner, r.seq, r, 0)
}

func (r *engineReplay) RunEvent(int32) {
	if r.next < len(r.recs) {
		r.push()
	}
}

func replayEngine(rec *recorder, seed int64) float64 {
	if len(rec.sched) == 0 {
		return 0
	}
	r := &engineReplay{e: sim.New(seed), recs: rec.sched}
	for i := 0; i < min(rec.meanDepth(), len(r.recs)); i++ {
		r.push()
	}
	start := time.Now()
	r.e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(r.e.Processed())
}

// sinkNode terminates a replay link and drops what it receives.
type sinkNode struct {
	name  string
	ports []*netsim.Port
}

func (s *sinkNode) Name() string                            { return s.name }
func (s *sinkNode) AttachPort(p *netsim.Port)               { s.ports = append(s.ports, p) }
func (s *sinkNode) HandleFrame(*netsim.Port, *netsim.Frame) {}
func (s *sinkNode) PortStatusChanged(*netsim.Port, bool)    {}

// replayLink sends the recorded frames across one link of a two-node
// network in queue-sized batches. It returns the admission and delivery
// nanoseconds per hop and the engine events each hop took.
func replayLink(frames [][]byte, seed int64) (admitNS, deliverNS, eventsPerHop float64) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	const batch = 32 // 32 full-size frames fit the default 128 KiB queue
	net := netsim.NewNetwork(seed)
	a, z := &sinkNode{name: "A"}, &sinkNode{name: "Z"}
	net.Connect(a, z, netsim.DefaultLinkConfig())
	out := a.ports[0]
	fs := make([]*netsim.Frame, 0, batch)
	var admit, deliver time.Duration
	for i := 0; i < len(frames); i += batch {
		fs = fs[:0]
		for _, b := range frames[i:min(i+batch, len(frames))] {
			fs = append(fs, net.NewFrame(b))
		}
		t0 := time.Now()
		for _, f := range fs {
			out.SendFrame(f)
		}
		t1 := time.Now()
		net.Run()
		deliver += time.Since(t1)
		admit += t1.Sub(t0)
		for _, f := range fs {
			f.Release()
		}
	}
	n := float64(len(frames))
	return float64(admit.Nanoseconds()) / n, float64(deliver.Nanoseconds()) / n, float64(net.Processed()) / n
}

// replayPorts returns two ports to bind table entries to.
func replayPorts() [2]*netsim.Port {
	net := netsim.NewNetwork(1)
	a, z := &sinkNode{name: "A"}, &sinkNode{name: "Z"}
	net.Connect(a, z, netsim.DefaultLinkConfig())
	net.Connect(a, z, netsim.DefaultLinkConfig())
	return [2]*netsim.Port{a.ports[0], a.ports[1]}
}

func defaultTable() *core.LockTable {
	c := core.DefaultConfig()
	return core.NewLockTable(c.LockTimeout, c.LearnedTimeout)
}

// replayLookup times GetKey over the recorded key stream on a table
// holding every recorded source: each record looks up its source and,
// for unicast, its destination.
func replayLookup(keys []keyRec) float64 {
	if len(keys) == 0 {
		return 0
	}
	ports := replayPorts()
	t := defaultTable()
	for _, k := range keys {
		t.LearnKey(k.src, ports[k.port%2], 0)
	}
	n := 0
	start := time.Now()
	for _, k := range keys {
		t.GetKey(k.src, k.at)
		n++
		if !k.bcast {
			t.GetKey(k.dst, k.at)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replayLock times LockKey for every recorded broadcast on an unbounded
// table.
func replayLock(keys []keyRec) float64 {
	ports := replayPorts()
	t := defaultTable()
	n := 0
	start := time.Now()
	for _, k := range keys {
		if k.bcast {
			t.LockKey(k.src, ports[k.port%2], k.at)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replayChurn times the write side on a table bounded like
// discovery_churn's: broadcasts lock their source, unicasts learn it.
func replayChurn(keys []keyRec) float64 {
	if len(keys) == 0 {
		return 0
	}
	bound, err := tables.ParseConfig(churnCapacity, "lru")
	if err != nil {
		panic(err)
	}
	c := core.DefaultConfig()
	t := core.NewBoundedLockTable(c.LockTimeout, c.LearnedTimeout, bound)
	ports := replayPorts()
	start := time.Now()
	for _, k := range keys {
		if k.bcast {
			t.LockKey(k.src, ports[k.port%2], k.at)
		} else {
			t.LearnKey(k.src, ports[k.port%2], k.at)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys))
}

// replayDecode times netsim.NewFrame (pooled copy and view decode) and
// the matching release over the recorded frames, decodePasses times.
func replayDecode(frames [][]byte) float64 {
	const decodePasses = 16 // a single pass over the sample takes well under a millisecond
	if len(frames) == 0 {
		return 0
	}
	start := time.Now()
	for range decodePasses {
		for _, b := range frames {
			netsim.NewFrame(b).Release()
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(decodePasses*len(frames))
}
