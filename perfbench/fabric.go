package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The fabric every workload runs on: a random-regular graph of bridges
// with one host per bridge, built from the workload seed.
const (
	fabricBridges = 256
	fabricDegree  = 3
)

// Traffic shape.
const (
	setupConvs   = 64                     // conversations established during set-up, then streamed
	setupSettle  = 50 * time.Millisecond  // virtual time the set-up pings get
	pingPayload  = 56                     // ICMP echo payload bytes
	pingTimeout  = 2 * time.Second        // a conversation not answered by then failed
	flowInterval = 100 * time.Microsecond // datagram spacing per conversation
	flowWindow   = 200 * time.Millisecond // steady traffic phase (virtual)
	minPayload   = 18                     // UDP payload of a 60-byte (minimum) Ethernet frame
	sliceLen     = 10 * time.Millisecond  // RunFor slice; heap and queue depth are sampled per slice

	churnConvs    = 2000                 // conversations per discovery_churn repetition
	churnMeanGap  = 2 * time.Millisecond // mean Poisson inter-arrival (virtual)
	churnCapacity = 128                  // per-bridge lock-table bound, below the host count

	faultFlaps    = 4 // trunk link flaps inside the traffic window
	faultRestarts = 2 // bridge restarts inside the traffic window
)

// workload is one benchmark input family. BENCHMARK.json and README.md
// give the reason for each.
type workload struct {
	name   string
	shards int
	churn  bool // Poisson discovery stream instead of steady UDP
	faults bool // seeded flaps and restarts during the traffic window
}

var workloads = []workload{
	// Steady forwarding only: the control for the other two.
	{name: "steady_forward", shards: 1},
	// The write side: floods, races, locks and evictions.
	{name: "discovery_churn", shards: 1, churn: true},
	// The only coordinator and path-repair load.
	{name: "faults_sharded", shards: 2, faults: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is everything a repetition produces that must be a pure
// function of (workload, seed): repetitions compare it with ==.
type outcome struct {
	Events             uint64 // events executed in the timed phase
	Offered, Completed int    // timed-phase operations: datagrams (steady, faults) or conversations (churn)
	SetupAnswered      int    // set-up conversations answered
	RTTp50, RTTp99     time.Duration
	Core               core.Stats
	Host               host.Stats
	Ports              netsim.PortStats
	Evictions          uint64
	ResidentPeak       int
	LiveEnd            int64
	Windows, Barriers  uint64 // coordinator work: equal across repetitions, not across shard counts
	Exchanged          uint64
}

// withoutCoord clears the coordinator's own counters, which depend on the
// shard count, so outcomes at different shard counts compare with ==.
func withoutCoord(o outcome) outcome {
	o.Windows, o.Barriers, o.Exchanged = 0, 0, 0
	return o
}

// repOpts selects the instrumentation of one repetition.
type repOpts struct {
	shards int
	trace  *tracer // non-nil: bridges run under the span-recording wrapper
	check  bool    // attach the scenario checker (invariants and fingerprint)
}

type repKind uint8

const (
	repTimed     repKind = iota // untraced, measured
	repTraced                   // under the tracer, measured
	repChecked                  // under the scenario checker
	repReference                // shards=1 reference of a sharded workload
)

// rep is one repetition's measurements.
type rep struct {
	kind             repKind
	fabric           int  // index of the run's fabric it measured
	failed           bool // a correctness check concerning it failed
	setup, wall, cpu time.Duration
	traceBusy        int64 // ns inside bridge callbacks (traced repetitions)
	heapPeak         uint64
	mallocs, gcs     uint64
	gcPause          time.Duration
	coordWakeNS      int64
	pendingPeak      int
	out              outcome
	rtts             []time.Duration
	checker          *scenario.Checker
	fingerprint      uint64
}

// plan is the seeded traffic and fault schedule, drawn independently of
// the fabric's own random stream.
type plan struct {
	setup   [][2]int        // set-up conversations (host indices), streamed afterwards
	churn   [][2]int        // discovery conversations, never-talked pairs
	gaps    []time.Duration // Poisson inter-arrival before each churn conversation
	flaps   []flap
	restart []restart
}

type flap struct {
	link     int // index into the fabric's sorted trunk list
	down, up time.Duration
}

type restart struct {
	bridge int
	at     time.Duration
}

func makePlan(w workload, seed int64) plan {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var p plan
	if !w.churn {
		for len(p.setup) < setupConvs {
			s, d := rng.Intn(fabricBridges), rng.Intn(fabricBridges)
			if s != d {
				p.setup = append(p.setup, [2]int{s, d})
			}
		}
	} else {
		seen := map[[2]int]bool{}
		for len(p.churn) < churnConvs {
			s, d := rng.Intn(fabricBridges), rng.Intn(fabricBridges)
			key := [2]int{min(s, d), max(s, d)}
			if s == d || seen[key] {
				continue
			}
			seen[key] = true
			p.churn = append(p.churn, [2]int{s, d})
			p.gaps = append(p.gaps, time.Duration(rng.ExpFloat64()*float64(churnMeanGap)))
		}
	}
	if w.faults {
		at := func() time.Duration {
			return flowWindow/10 + time.Duration(rng.Int63n(int64(flowWindow*3/5)))
		}
		for i := 0; i < faultFlaps; i++ {
			down := at()
			p.flaps = append(p.flaps, flap{link: rng.Intn(fabricBridges * fabricDegree / 2), down: down,
				up: down + 2*time.Millisecond + time.Duration(rng.Int63n(int64(8*time.Millisecond)))})
		}
		for i := 0; i < faultRestarts; i++ {
			p.restart = append(p.restart, restart{bridge: rng.Intn(fabricBridges), at: at()})
		}
	}
	return p
}

// build constructs the workload's fabric; the set-up time starts here.
func build(w workload, seed int64, o repOpts) *topo.Built {
	proto := topo.ARPPath
	if o.trace != nil {
		proto = tracedProtocol
		activeTracer = o.trace
		defer func() { activeTracer = nil }()
	}
	opts := topo.DefaultOptions(proto, seed)
	opts.Shards = o.shards
	if w.churn {
		cfg := opts.ProtocolConfig.(*core.Config)
		cfg.TableCapacity = churnCapacity
		cfg.TablePolicy = "lru"
	}
	return topo.RandomRegular(opts, fabricBridges, fabricDegree)
}

func hostOf(b *topo.Built, i int) *host.Host { return b.Host(fmt.Sprintf("H%d", i+1)) }

// trunks lists the bridge-to-bridge links in name order.
func trunks(b *topo.Built) []*netsim.Link {
	names := make([]string, 0, len(b.Links))
	for name, l := range b.Links {
		_, ha := l.A().Node().(*host.Host)
		_, hb := l.B().Node().(*host.Host)
		if !ha && !hb {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]*netsim.Link, len(names))
	for i, name := range names {
		out[i] = b.Links[name]
	}
	return out
}

// converse starts one ping conversation now; its RTT lands in *slot.
func converse(b *topo.Built, src, dst int, slot *time.Duration) {
	s, d := hostOf(b, src), hostOf(b, dst)
	b.Engine.At(b.Now(), func() { s.Ping(d.IP(), pingPayload, pingTimeout, recordRTT(slot)) })
}

// recordRTT returns a ping callback that stores an answered ping's RTT.
func recordRTT(slot *time.Duration) func(host.PingResult) {
	return func(res host.PingResult) {
		if res.Err == nil {
			*slot = res.RTT
		}
	}
}

// answeredRTTs returns the RTTs of the answered conversations.
func answeredRTTs(slots []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range slots {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// runRep executes one repetition: set-up (build, warm-up, path
// establishment), the timed phase, a full drain, and the collection of
// every counter.
func runRep(w workload, seed int64, p plan, o repOpts) rep {
	var r rep
	runtime.GC()
	heap := newHeapSampler()
	setupStart := time.Now()
	b := build(w, seed, o)
	if o.check {
		r.checker = scenario.NewChecker(b)
	}
	if o.trace != nil {
		o.trace.attach(b, o.check)
	}
	// Each conversation records its RTT in its own slot (0 = unanswered):
	// in a sharded run the callbacks run concurrently on shard workers.
	setupRTT := make([]time.Duration, len(p.setup))
	for i, c := range p.setup {
		converse(b, c[0], c[1], &setupRTT[i])
	}
	if len(p.setup) > 0 {
		b.RunFor(setupSettle)
	}
	r.setup = time.Since(setupStart)
	heap.sample()

	// Arm the timed phase.
	base := b.Now()
	var sinks []*app.Sink
	var span time.Duration
	churnRTT := make([]time.Duration, len(p.churn))
	if w.churn {
		r.out.Offered = len(p.churn)
		var arrive func(i int)
		arrive = func(i int) {
			c := p.churn[i]
			// A conversation starts from a cold resolver, so its ping
			// always opens with an ARP flood and the discovery race.
			// Without the flush, hosts that overheard an earlier flood
			// skip ARP and lean on path repair instead.
			hostOf(b, c[0]).ARP().Flush()
			hostOf(b, c[0]).Ping(hostOf(b, c[1]).IP(), pingPayload, pingTimeout, recordRTT(&churnRTT[i]))
			if i+1 < len(p.churn) {
				b.Engine.At(b.Now()+p.gaps[i+1], func() { arrive(i + 1) })
			}
		}
		var total time.Duration
		for _, g := range p.gaps {
			total += g
		}
		b.Engine.At(base+p.gaps[0], func() { arrive(0) })
		span = total + sliceLen
	} else {
		count := int(flowWindow / flowInterval)
		for i, c := range p.setup {
			port := uint16(9001 + i)
			sinks = append(sinks, app.NewSink(hostOf(b, c[1]), port))
			src, dstIP := hostOf(b, c[0]), hostOf(b, c[1]).IP()
			r.out.Offered += count
			b.Engine.At(base, func() {
				app.StartFlow(src, app.FlowConfig{
					DstIP: dstIP, DstPort: port, SrcPort: port,
					PayloadSize: minPayload, Interval: flowInterval, Count: count,
				}, nil)
			})
		}
		span = flowWindow + sliceLen
		scheduleFaults(b, p, base)
	}
	if o.check && !w.faults {
		r.checker.MarkStable(base)
	}

	engines := shardEngines(b)
	var before outcome
	collectCounters(b, &before)
	o.trace.startTimed()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	coord0 := b.Network.CoordStats()
	ev0 := b.Network.Processed()
	cpu0 := cpuTime()
	start := time.Now()
	for t := time.Duration(0); t < span; t += sliceLen {
		o.trace.beginSlice()
		b.RunFor(sliceLen)
		o.trace.endSlice()
		heap.sample()
		n := pending(engines)
		r.pendingPeak = max(r.pendingPeak, n)
		o.trace.sampleDepth(n)
	}
	o.trace.beginSlice()
	b.Run()
	o.trace.endSlice()
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.out.Events = b.Network.Processed() - ev0
	coord := b.Network.CoordStats()
	runtime.ReadMemStats(&ms1)
	heap.sample()
	r.heapPeak = heap.peak
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcs = uint64(ms1.NumGC - ms0.NumGC)
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	r.out.Windows = coord.Windows - coord0.Windows
	r.out.Barriers = coord.Barriers - coord0.Barriers
	r.out.Exchanged = coord.Exchanged - coord0.Exchanged
	r.coordWakeNS = coord.WakeNS - coord0.WakeNS

	rtts := answeredRTTs(setupRTT)
	r.out.SetupAnswered = len(rtts)
	if w.churn {
		rtts = answeredRTTs(churnRTT)
		r.out.Completed = len(rtts)
	} else {
		for _, s := range sinks {
			r.out.Completed += s.Count()
		}
	}
	slices.Sort(rtts)
	r.rtts = rtts
	r.out.RTTp50 = quantileDur(rtts, 0.50)
	r.out.RTTp99 = quantileDur(rtts, 0.99)
	collectCounters(b, &r.out)
	subCounters(&r.out, before)
	if r.checker != nil {
		r.checker.CheckTables()
		r.checker.CheckFrameDrain()
		r.fingerprint = r.checker.Fingerprint()
	}
	if o.trace != nil {
		_, r.traceBusy, _ = o.trace.bridgeTotals()
	}
	return r
}

// scheduleFaults arms the plan's flaps and restarts relative to base. Each
// fault is keyed by the entity it acts on and runs inside a shard when
// everything it touches lives there, as a coordinator barrier otherwise.
func scheduleFaults(b *topo.Built, p plan, base time.Duration) {
	if len(p.flaps) == 0 && len(p.restart) == 0 {
		return
	}
	tr := trunks(b)
	for _, f := range p.flaps {
		l := tr[f.link%len(tr)]
		a, z := l.A().Node(), l.B().Node()
		touch := []netsim.Node{a, z}
		b.Network.ScheduleScoped(base+f.down, a, touch, func() { l.SetUp(false) })
		b.Network.ScheduleScoped(base+f.up, a, touch, func() { l.SetUp(true) })
	}
	for _, rs := range p.restart {
		br := b.Bridges[rs.bridge].(*core.Bridge)
		touch := []netsim.Node{br}
		for _, port := range br.Ports() {
			touch = append(touch, port.Peer().Node())
		}
		b.Network.ScheduleScoped(base+rs.at, br, touch, br.Restart)
	}
}

// collectCounters sums the per-bridge, per-host and per-port counters.
func collectCounters(b *topo.Built, out *outcome) {
	for _, br := range b.Bridges {
		cb := br.(*core.Bridge)
		addFields(&out.Core, cb.Stats())
		out.Evictions += cb.Table().Evictions()
		out.ResidentPeak = max(out.ResidentPeak, cb.Table().PeakEntries())
	}
	for _, h := range b.Hosts {
		addFields(&out.Host, h.Stats())
	}
	for _, l := range b.Network.Links() {
		for _, port := range l.Ports() {
			addFields(&out.Ports, port.Stats())
		}
	}
	out.LiveEnd = b.Network.LiveFrames()
}

// subCounters turns whole-repetition counters into timed-phase ones.
// Peak table occupancy stays a lifetime figure.
func subCounters(out *outcome, before outcome) {
	subFields(&out.Core, before.Core)
	subFields(&out.Host, before.Host)
	subFields(&out.Ports, before.Ports)
	out.Evictions -= before.Evictions
}

// addFields adds every uint64 field of src into *dst (same struct type);
// subFields subtracts them. The layers' stats structs are flat uint64
// counters.
func addFields[T any](dst *T, src T) { foldFields(dst, src, 1) }
func subFields[T any](dst *T, src T) { foldFields(dst, src, -1) }

func foldFields[T any](dst *T, src T, sign int) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < dv.NumField(); i++ {
		if sign > 0 {
			dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
		} else {
			dv.Field(i).SetUint(dv.Field(i).Uint() - sv.Field(i).Uint())
		}
	}
}

// shardEngines returns the distinct engines the fabric's nodes run on:
// the control engine alone unsharded, one per shard besides it otherwise.
func shardEngines(b *topo.Built) []*sim.Engine {
	out := []*sim.Engine{b.Engine}
	for _, n := range b.Network.Nodes() {
		e := b.Network.Proc(n.Name()).Engine()
		if !slices.Contains(out, e) {
			out = append(out, e)
		}
	}
	return out
}

func pending(engines []*sim.Engine) int {
	n := 0
	for _, e := range engines {
		n += e.Pending()
	}
	return n
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak of heap bytes in allocated objects (live
// plus not yet swept), read without stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, h.s[0].Value.Uint64())
	}
}
