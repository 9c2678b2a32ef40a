package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// tracedProtocol is ARP-Path with every bridge's protocol callbacks run
// under a span-recording wrapper. It reuses the arppath registration's
// config type and strict spec codec, so it builds and decodes exactly
// like the protocol it wraps.
const tracedProtocol topo.Protocol = "arppath-traced"

// activeTracer receives the bridges the registry constructs while build
// runs a traced repetition. Set and cleared by build only, on the
// benchmark's single goroutine.
var activeTracer *tracer

func init() {
	arp, ok := topo.LookupProtocol(topo.ARPPath)
	if !ok {
		panic("perfbench: arppath protocol not registered")
	}
	topo.RegisterProtocol(topo.Definition{
		Name:          tracedProtocol,
		NewConfig:     arp.NewConfig,
		ApplyDefaults: arp.ApplyDefaults,
		WarmUp:        arp.WarmUp,
		DecodeConfig:  arp.DecodeConfig,
		EncodeConfig:  arp.EncodeConfig,
		New: func(net *netsim.Network, name string, numID int, cfg any) topo.Bridge {
			return activeTracer.newBridge(net, name, numID, *cfg.(*core.Config))
		},
	})
}

type spanKind uint8

const (
	spanSlice spanKind = iota // one RunFor slice of the timed phase (or the final drain)
	spanOnFrame
	spanOnPortStatus
)

var spanNames = [...]string{"runfor", "bridge.OnFrame", "bridge.OnPortStatus"}

// span is one timed interval, in nanoseconds since the tracer's epoch.
// Bridge spans name the slice that was running as their parent.
type span struct {
	kind       spanKind
	bridge     int32
	parent     int32
	start, end int64
}

// spansPerBridge caps the bridge spans kept in memory per bridge; every
// call is still counted, timed and added to the histogram.
const spansPerBridge = 256

// tracer records one traced repetition: RunFor slice spans, per-call
// bridge spans and self-time histograms, and in checked repetitions the
// tap counts by kind and the layer inputs the replays use.
type tracer struct {
	epoch   time.Time
	slice   int32 // index of the running slice; written between RunFor calls only
	slices  []span
	bridges []*tracedBridge
	taps    [netsim.TapDropLoss + 1]uint64
	net     *netsim.Network
	rec     *recorder
}

func newTracer(record bool) *tracer {
	t := &tracer{epoch: time.Now()}
	if record {
		t.rec = newRecorder()
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newBridge(net *netsim.Network, name string, numID int, cfg core.Config) *core.Bridge {
	tb := &tracedBridge{tr: t, id: int32(len(t.bridges))}
	tb.Bridge = core.NewWithProtocol(net, name, numID, cfg, tb)
	t.bridges = append(t.bridges, tb)
	return tb.Bridge
}

// attach binds the tracer to the built fabric; with taps it also counts
// every tap event by kind (a tap makes netsim assemble an event per frame
// event, so the timed traced repetitions go without).
func (t *tracer) attach(b *topo.Built, taps bool) {
	t.net = b.Network
	if taps {
		b.Network.Tap(func(ev netsim.TapEvent) { t.taps[ev.Kind]++ })
	}
}

// The slice and phase hooks below are no-ops on a nil tracer, so an
// untraced repetition runs the same loop.

func (t *tracer) beginSlice() {
	if t == nil {
		return
	}
	t.slice = int32(len(t.slices))
	t.slices = append(t.slices, span{kind: spanSlice, bridge: -1, parent: -1, start: t.now()})
}

func (t *tracer) endSlice() {
	if t != nil {
		t.slices[t.slice].end = t.now()
	}
}

// startTimed clears what set-up recorded, so counts, spans and replay
// inputs cover the timed phase only.
func (t *tracer) startTimed() {
	if t == nil {
		return
	}
	t.taps = [len(t.taps)]uint64{}
	t.slices = t.slices[:0]
	if t.rec != nil {
		t.rec = newRecorder()
	}
	for _, b := range t.bridges {
		b.calls, b.busy = 0, 0
		b.hist = hist{}
		b.spans = b.spans[:0]
	}
}

// sampleDepth feeds the recorder the engine queue depth the replays
// reproduce.
func (t *tracer) sampleDepth(n int) {
	if t != nil && t.rec != nil {
		t.rec.depthSum += n
		t.rec.depthN++
	}
}

// bridgeTotals sums the per-bridge OnFrame calls, callback busy time and
// OnFrame histograms.
func (t *tracer) bridgeTotals() (calls uint64, busy int64, h hist) {
	for _, b := range t.bridges {
		calls += b.calls
		busy += b.busy
		h.merge(&b.hist)
	}
	return
}

// writeSpans writes every kept span as JSON lines: the slices first, then
// each bridge's calls.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	put := func(id int, s span) {
		name := spanNames[s.kind]
		if s.bridge >= 0 {
			name = fmt.Sprintf("%s %s", spanNames[s.kind], t.bridges[s.bridge].Name())
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", id, s.parent, name, s.start, s.end)
	}
	id := 0
	for _, s := range t.slices {
		put(id, s)
		id++
	}
	for _, b := range t.bridges {
		for _, s := range b.spans {
			put(id, s)
			id++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBridge is the wrapper protocol: it delegates to the ARP-Path
// bridge it embeds and times each callback. A bridge's callbacks run on
// its shard's worker only, so its fields need no synchronization.
type tracedBridge struct {
	*core.Bridge
	tr    *tracer
	id    int32
	calls uint64 // OnFrame calls
	busy  int64  // ns inside OnFrame and OnPortStatus
	hist  hist
	spans []span
	eng   *sim.Engine // recording runs only
}

func (b *tracedBridge) OnFrame(in *netsim.Port, f *netsim.Frame) {
	if b.tr.rec != nil {
		if b.eng == nil {
			b.eng = b.tr.net.Proc(b.Name()).Engine()
		}
		b.tr.rec.frame(b.eng, in, f)
	}
	s := b.tr.now()
	b.Bridge.OnFrame(in, f)
	e := b.tr.now()
	b.calls++
	b.hist.add(e - s)
	b.note(spanOnFrame, s, e)
}

func (b *tracedBridge) OnPortStatus(p *netsim.Port, up bool) {
	s := b.tr.now()
	b.Bridge.OnPortStatus(p, up)
	e := b.tr.now()
	b.note(spanOnPortStatus, s, e)
}

func (b *tracedBridge) note(k spanKind, s, e int64) {
	b.busy += e - s
	if len(b.spans) < spansPerBridge {
		b.spans = append(b.spans, span{kind: k, bridge: b.id, parent: b.tr.slice, start: s, end: e})
	}
}

// hist is a log-linear histogram of nanosecond durations: 32 linear
// sub-buckets per power of two, so a quantile read back is within ~3%.
type hist struct {
	n       uint64
	buckets [64 * histSub]uint64
}

const histSubBits = 5
const histSub = 1 << histSubBits

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits
	return (e+1)*histSub + int(uint64(v)>>uint(e)) - histSub
}

func histLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	return int64(histSub+i%histSub) << uint(e)
}

func (h *hist) add(v int64) {
	h.n++
	h.buckets[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			lo, hi := histLow(i), histLow(i+1)
			return float64(lo+hi) / 2
		}
	}
	return float64(histLow(len(h.buckets) - 1))
}

// recorder keeps the layer inputs of one unsharded traced repetition:
// the (virtual time, owner) key of every bridge delivery event, the lock
// table key stream, and a sample of delivered frames.
type recorder struct {
	sched    []schedRec
	keys     []keyRec
	frames   [][]byte
	seen     int
	depthSum int
	depthN   int
}

type schedRec struct {
	at    time.Duration
	owner uint64
}

type keyRec struct {
	src, dst uint64
	bcast    bool
	port     int
	at       time.Duration
}

const (
	recordCap   = 1 << 18 // schedule and key records kept
	frameCap    = 4096    // frames kept
	frameStride = 16      // keep every 16th delivered frame
)

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) frame(e *sim.Engine, in *netsim.Port, f *netsim.Frame) {
	if len(r.keys) < recordCap {
		at, owner, _ := e.CurKey()
		v := f.View()
		r.sched = append(r.sched, schedRec{at: at, owner: owner})
		r.keys = append(r.keys, keyRec{src: v.SrcKey, dst: v.DstKey, bcast: v.IsMulticast(), port: in.Index(), at: at})
	}
	if r.seen%frameStride == 0 && len(r.frames) < frameCap {
		r.frames = append(r.frames, bytes.Clone(f.Bytes())) //fabriclint:ownership bytes.Clone copies the borrowed bytes; no reference to the pooled buffer survives the call
	}
	r.seen++
}

func (r *recorder) meanDepth() int {
	if r.depthN == 0 {
		return 1
	}
	return max(1, r.depthSum/r.depthN)
}
