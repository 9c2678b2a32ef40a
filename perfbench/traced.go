package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// measureTraced is the --trace 1 run, on the run's first fabric. It
// interleaves untraced and traced repetitions until the budget is spent
// (the tracer's overhead is their ratio). Then it makes two checked
// repetitions under the scenario checker, one at the workload's shard
// count and one at the other of 1 and 2: both must hold every invariant
// and produce the same trace fingerprint and outcome. The unsharded one
// records the layer inputs the replays feed into each layer alone.
func measureTraced(w workload, runSeed int64, budget time.Duration, spansPath string) *result {
	seed := fabricSeed(runSeed, 0)
	p := makePlan(w, seed)
	res := &result{}
	var traced []*rep
	var tracers []*tracer
	deadline := time.Now().Add(budget)
	for len(traced) < minTraced || time.Now().Before(deadline) {
		res.add(runRep(w, seed, p, repOpts{shards: w.shards}))
		tr := newTracer(false)
		x := res.add(runRep(w, seed, p, repOpts{shards: w.shards, trace: tr}))
		x.kind = repTraced
		traced = append(traced, x)
		tracers = append(tracers, tr)
	}
	untraced := res.timed()
	res.checkRepeat("fabric0", append(append([]*rep(nil), untraced...), traced...))

	otherShards := 2
	if w.shards > 1 {
		otherShards = 1
	}
	checkedTracer := newTracer(w.shards == 1)
	checked := res.add(runRep(w, seed, p, repOpts{shards: w.shards, trace: checkedTracer, check: true}))
	checked.kind = repChecked
	refTracer := newTracer(otherShards == 1)
	ref := res.add(runRep(w, seed, p, repOpts{shards: otherShards, trace: refTracer, check: true}))
	ref.kind = repReference
	res.checkChecker(fmt.Sprintf("checker.shards%d", w.shards), checked)
	res.checkChecker(fmt.Sprintf("checker.shards%d", otherShards), ref)
	res.check("fingerprint", checked.fingerprint == ref.fingerprint,
		fmt.Sprintf("shards=%d %#016x vs shards=%d %#016x", w.shards, checked.fingerprint, otherShards, ref.fingerprint), ref)
	a, b := withoutCoord(checked.out), withoutCoord(ref.out)
	res.check("shard_equivalence", a == b,
		fmt.Sprintf("shards=%d vs shards=%d: %s", w.shards, otherShards, diffOutcome(a, b)), ref)
	res.check("checked_outcome", checked.out == untraced[0].out,
		"checked vs untraced: "+diffOutcome(untraced[0].out, checked.out), checked)
	recording := checkedTracer
	if w.shards > 1 {
		recording = refTracer
	}

	last := tracers[len(tracers)-1]
	if err := last.writeSpans(spansPath); err != nil {
		res.lines = append(res.lines, fmt.Sprintf("spans: not written: %v", err))
	} else {
		res.lines = append(res.lines, fmt.Sprintf("spans: %s (%d slices, up to %d calls per bridge)", spansPath, len(last.slices), spansPerBridge))
	}
	rp := runReplays(recording.rec, seed)
	res.lines = append(res.lines, fmt.Sprintf("replays: %d schedule records, %d key records, %d frames, mean queue depth %d",
		rp.schedRecs, len(recording.rec.keys), rp.frames, recording.rec.meanDepth()))
	res.layerMetrics(untraced, traced, tracers, checkedTracer.taps, rp)
	return res
}

// checkChecker requires a checked repetition to report no invariant
// violation.
func (r *result) checkChecker(name string, x *rep) {
	vs := x.checker.Violations()
	detail := fmt.Sprintf("%d violations", len(vs)+x.checker.Dropped())
	for i, v := range vs {
		if i == 3 {
			break
		}
		detail += "; " + v.String()
	}
	r.check(name, len(vs) == 0 && x.checker.Dropped() == 0, detail, x)
}

// layerMetrics derives the per-layer breakdown.
func (r *result) layerMetrics(untraced, traced []*rep, tracers []*tracer, taps [netsim.TapDropLoss + 1]uint64, rp replays) {
	out := untraced[0].out
	events := float64(out.Events)
	uWall := median(perRep(untraced, func(x *rep) float64 { return float64(x.wall.Nanoseconds()) }))
	tWall := median(perRep(traced, func(x *rep) float64 { return float64(x.wall.Nanoseconds()) }))
	tr := tracers[len(tracers)-1]
	calls, _, h := tr.bridgeTotals()

	r.metric("sim.events", "count", events)
	r.metric("sim.pending_peak", "count", float64(untraced[0].pendingPeak))
	r.metric("sim.replay_ns_per_event", "ns", rp.simNSPerEvent)
	r.metric("sim.share", "ratio", ratio(events*rp.simNSPerEvent, uWall))

	r.metric("netsim.frames_sent", "count", float64(taps[netsim.TapSend]))
	r.metric("netsim.frames_delivered", "count", float64(taps[netsim.TapDeliver]))
	r.metric("netsim.drops_queue", "count", float64(taps[netsim.TapDropQueue]))
	r.metric("netsim.drops_down", "count", float64(taps[netsim.TapDropDown]))
	r.metric("netsim.drops_loss", "count", float64(taps[netsim.TapDropLoss]))
	r.metric("netsim.replay_ns_per_hop", "ns", rp.hopNS)
	r.metric("netsim.live_frames_end", "count", float64(out.LiveEnd))

	r.metric("core.onframe_calls", "count", float64(calls))
	r.metric("core.onframe_self_ns.p50", "ns", h.quantile(0.50))
	r.metric("core.onframe_self_ns.p99", "ns", h.quantile(0.99))
	r.metric("core.forwarded", "count", float64(out.Core.Forwarded))
	r.metric("core.table_lookup_ns", "ns", rp.lookupNS)
	r.metric("core.table_lock_ns", "ns", rp.lockNS)
	r.metric("core.flood_relays", "count", float64(out.Core.BroadcastRelayed))
	r.metric("core.race_drops", "count", float64(out.Core.BroadcastRaceDrop))
	r.metric("core.race_drop_ratio", "ratio", ratio(float64(out.Core.BroadcastRaceDrop), float64(out.Core.BroadcastRelayed)))
	r.metric("core.repairs_started", "count", float64(out.Core.RepairsStarted))
	r.metric("core.repair_released", "count", float64(out.Core.RepairReleased))
	r.metric("core.repair_dropped", "count", float64(out.Core.RepairDropped))
	r.metric("core.entries_purged", "count", float64(out.Core.EntriesPurged))

	r.metric("tables.evictions", "count", float64(out.Evictions))
	r.metric("tables.resident_peak", "count", float64(out.ResidentPeak))
	r.metric("tables.churn_ns_per_insert", "ns", rp.churnNSPerInsert)

	r.metric("host.arp_requests", "count", float64(out.Host.ARPRequestsTx))
	r.metric("host.arp_retries", "count", float64(out.Host.ARPRequestsTx-out.Host.ARPResolves-out.Host.ARPFailures))
	r.metric("host.pending_arp_drops", "count", float64(out.Host.DroppedPendingARP))
	r.metric("layers.decode_ns_per_frame", "ns", rp.decodeNSPerFrame)

	wakeNS := median(perRep(untraced, func(x *rep) float64 { return float64(x.coordWakeNS) }))
	r.metric("coord.windows", "count", float64(out.Windows))
	r.metric("coord.barriers", "count", float64(out.Barriers))
	r.metric("coord.exchanged", "count", float64(out.Exchanged))
	r.metric("coord.events_per_window", "events", ratio(events, float64(out.Windows)))
	r.metric("coord.wake_us_per_window", "us", ratio(wakeNS/1e3, float64(out.Windows)))

	r.metric("runtime.allocs_per_kevent", "allocs", median(perRep(untraced, func(x *rep) float64 { return ratio(float64(x.mallocs), events/1e3) })))
	r.metric("runtime.gc_cycles", "count", median(perRep(untraced, func(x *rep) float64 { return float64(x.gcs) })))
	r.metric("runtime.gc_pause_ms", "ms", median(perRep(untraced, func(x *rep) float64 { return float64(x.gcPause.Nanoseconds()) / 1e6 })))

	// What the layers account for in a traced repetition: the bridge
	// callbacks measured in place, plus the replayed cost of the engine per
	// event, of link delivery per hop, and of admitting and decoding each
	// frame a host originates. The rest — host stack, timers, the tracer's
	// own reads outside spans — is unattributed.
	unattributed := perRep(traced, func(x *rep) float64 {
		attributed := float64(x.traceBusy) + events*rp.simNSPerEvent +
			float64(taps[netsim.TapDeliver])*rp.hopDeliverNetNS +
			float64(out.Host.FramesTx)*(rp.hopAdmitNS+rp.decodeNSPerFrame)
		return 1 - attributed/float64(x.wall.Nanoseconds())
	})
	r.metric("trace.overhead", "ratio", ratio(tWall, uWall)-1)
	r.metric("trace.unattributed_share", "ratio", median(unattributed))
	r.lines = append(r.lines, fmt.Sprintf("wall: untraced median %.4fs, traced median %.4fs over %d pairs; bridge callbacks %.1f%% of traced wall",
		uWall/1e9, tWall/1e9, len(traced), 100*ratio(float64(traced[len(traced)-1].traceBusy), float64(traced[len(traced)-1].wall.Nanoseconds()))))
}
