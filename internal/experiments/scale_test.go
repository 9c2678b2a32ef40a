package experiments

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/topo"
)

// smallScale keeps the determinism gates fast: a 32-bridge fabric with a
// short traffic window and the fingerprint tap attached.
func smallScale(seed int64, shards int) ScaleConfig {
	cfg := DefaultScaleConfig(seed, shards)
	cfg.Bridges = 32
	cfg.Flows = 16
	cfg.Window = 30 * time.Millisecond
	cfg.Trace = true
	return cfg
}

// TestScaleDeterministicAcrossShards is the PR's central acceptance gate:
// the same seed must produce the identical trace fingerprint, delivery
// count, event count — and byte-identical table output — at every shard
// count.
func TestScaleDeterministicAcrossShards(t *testing.T) {
	base := RunScale(smallScale(3, 1))
	if base.Delivered == 0 || base.TraceEvents == 0 {
		t.Fatalf("degenerate base run: %+v", base)
	}
	baseTable := ScaleTable([]*ScaleResult{base}).String()
	for _, k := range []int{2, 4} {
		r := RunScale(smallScale(3, k))
		if r.Fingerprint != base.Fingerprint || r.TraceEvents != base.TraceEvents {
			t.Fatalf("shards=%d trace diverged: fp=%#x/%d events, want %#x/%d",
				k, r.Fingerprint, r.TraceEvents, base.Fingerprint, base.TraceEvents)
		}
		if r.Delivered != base.Delivered || r.Events != base.Events {
			t.Fatalf("shards=%d accounting diverged: delivered=%d events=%d, want %d/%d",
				k, r.Delivered, r.Events, base.Delivered, base.Events)
		}
		// The deterministic table must be byte-identical modulo the shard
		// column itself; compare by re-rendering the base with k patched in.
		patched := *base
		patched.Config.Shards = k
		if got := ScaleTable([]*ScaleResult{r}).String(); got != ScaleTable([]*ScaleResult{&patched}).String() {
			t.Fatalf("shards=%d table bytes diverged:\n%s\nvs\n%s", k, got, baseTable)
		}
	}
}

// TestScaleDeterministicAcrossGOMAXPROCS pins the other axis: with a
// fixed shard count, the worker scheduling (1 OS thread vs many) must not
// leak into any result.
func TestScaleDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := RunScale(smallScale(5, 4))
	runtime.GOMAXPROCS(4)
	many := RunScale(smallScale(5, 4))
	runtime.GOMAXPROCS(prev)
	if one.Fingerprint != many.Fingerprint || one.TraceEvents != many.TraceEvents ||
		one.Delivered != many.Delivered || one.Events != many.Events {
		t.Fatalf("GOMAXPROCS changed the run: %+v vs %+v", one, many)
	}
}

// TestScaleShardsSeedSweep widens the shard determinism gate across a
// seed sweep of the full scale workload (synchronized CBR flows — the
// worst case for same-timestamp key ties): shards=4 must reproduce the
// single-engine fingerprint, trace-event, delivered and event counts
// exactly.
func TestScaleShardsSeedSweep(t *testing.T) {
	for seed := int64(11); seed <= 15; seed++ {
		ref := RunScale(smallScale(seed, 1))
		if ref.Delivered == 0 || ref.TraceEvents == 0 {
			t.Fatalf("seed %d: degenerate single-engine run: %+v", seed, ref)
		}
		r := RunScale(smallScale(seed, 4))
		if r.Fingerprint != ref.Fingerprint || r.TraceEvents != ref.TraceEvents ||
			r.Delivered != ref.Delivered || r.Events != ref.Events {
			t.Fatalf("seed %d: shards=4 diverged from shards=1: fp=%#x/%d delivered=%d events=%d, want fp=%#x/%d delivered=%d events=%d",
				seed, r.Fingerprint, r.TraceEvents, r.Delivered, r.Events,
				ref.Fingerprint, ref.TraceEvents, ref.Delivered, ref.Events)
		}
	}
}

// TestExperimentsShardInvariant runs paper experiments through the global
// -shards plumbing and requires byte-identical table output: the sharded
// engine must be invisible in every figure/table artifact.
func TestExperimentsShardInvariant(t *testing.T) {
	render := func() []string {
		return []string{
			RunFigure1(9).Table().String(),
			T1Table(RunT1Properties(9, 3)).String(),
			T5Table(RunT5LockWindow(9, []time.Duration{time.Millisecond, 20 * time.Millisecond})).String(),
		}
	}
	Shards = 1
	single := render()
	Shards = 4
	sharded := render()
	Shards = 1
	for i := range single {
		if single[i] != sharded[i] {
			t.Fatalf("table %d diverged between shards=1 and shards=4:\n%s\nvs\n%s", i, single[i], sharded[i])
		}
	}
	_ = topo.ARPPath
}
