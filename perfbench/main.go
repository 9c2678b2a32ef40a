// Command perfbench is the fabric's benchmark: it builds a 256-bridge
// random-regular ARP-Path fabric from a seed, drives one of three
// workloads through it, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload steady_forward --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 it reports the per-layer breakdown from a traced run
// (README.md lists both). --workload all runs the three in turn. A
// failed correctness check makes it exit 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// fabricsPerRun is how many fabrics one run measures, each built from its
// own seed derived from --seed: the virtual outcomes (RTT, delivery)
// depend on the topology, and pooling several keeps a run's figures
// representative of the family rather than of one graph.
const fabricsPerRun = 8

// fabricSeed derives fabric k's seed; distinct run seeds never share one.
func fabricSeed(seed int64, k int) int64 { return seed*fabricsPerRun + int64(k) }

// minTraced is the fewest untraced/traced pairs a traced run makes.
const minTraced = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: steady_forward, discovery_churn, faults_sharded, or all of them in turn")
	seed := fset.Int64("seed", 1, "workload seed")
	seconds := fset.Float64("seconds", 10, "measurement budget in wall seconds")
	traced := fset.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fset.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	commit := fset.String("commit", "", "commit under test, recorded with the result")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		if w, ok := lookupWorkload(*name); ok {
			selected = []workload{w}
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s or all), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	code := 0
	for _, w := range selected {
		if !measureWorkload(w, *seed, *seconds, *traced == 1, *spans, *commit, stdout) {
			code = 1
		}
	}
	return code
}

// measureWorkload runs and reports one workload; it returns whether every
// correctness check held.
func measureWorkload(w workload, seed int64, seconds float64, traced bool, spans, commit string, stdout io.Writer) bool {
	procs := runtime.NumCPU()
	if w.shards > 1 {
		procs = min(w.shards, procs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prov := provenanceOf(w, seed, traced, commit)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	budget := time.Duration(seconds * float64(time.Second))
	var res *result
	if traced {
		res = measureTraced(w, seed, budget, filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)))
	} else {
		res = measure(w, seed, budget)
	}
	res.report(stdout)
	return res.correct()
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// result collects a run's repetitions, checks and metrics.
type result struct {
	reps    []*rep
	checks  []check
	metrics []metric
	lines   []string // human-readable detail printed before the metrics
}

type check struct {
	name, detail string
	ok           bool
}

type metric struct {
	name, unit string
	value      float64
	q1, q3     float64 // spread across repetitions, when the metric has one
	spread     bool
}

func (r *result) add(x rep) *rep {
	p := &x
	r.reps = append(r.reps, p)
	return p
}

// check records a correctness check; a failure marks the repetitions it
// concerns as failed.
func (r *result) check(name string, ok bool, detail string, reps ...*rep) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: detail})
	if !ok {
		for _, p := range reps {
			p.failed = true
		}
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

func (r *result) metric(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// spreadMetric records the median of per-repetition values with their
// quartiles.
func (r *result) spreadMetric(name, unit string, per []float64) {
	q1, q3 := quartiles(per)
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: median(per), q1: q1, q3: q3, spread: true})
}

func (r *result) report(out io.Writer) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range r.metrics {
		if m.spread {
			fmt.Fprintf(w, "metric %-30s %14.6g %-6s (median of %d repetitions; q1 %.6g, q3 %.6g)\n", m.name, m.value, m.unit, len(r.timed()), m.q1, m.q3)
		} else {
			fmt.Fprintf(w, "metric %-30s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %s %s %s\n", c.name, status, c.detail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	failed := 0
	for _, p := range r.reps {
		if p.failed {
			failed++
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), len(r.reps), failed, ms})
	fmt.Fprintf(w, "%s\n", line)
}

// timed returns the untraced timed repetitions.
func (r *result) timed() []*rep {
	var out []*rep
	for _, p := range r.reps {
		if p.kind == repTimed {
			out = append(out, p)
		}
	}
	return out
}

// checkRepeat requires every repetition of one fabric to reproduce the
// first one's outcome exactly and to drain to zero live frames.
func (r *result) checkRepeat(name string, reps []*rep) {
	ref := reps[0]
	for i, x := range reps {
		r.check(fmt.Sprintf("%s.live_frames[%d]", name, i), x.out.LiveEnd == 0,
			fmt.Sprintf("%d pooled frames referenced after drain", x.out.LiveEnd), x)
		if i > 0 {
			r.check(fmt.Sprintf("%s.repeatable[%d]", name, i), x.out == ref.out, diffOutcome(ref.out, x.out), x)
		}
	}
}

// diffOutcome names the fields in which two outcomes differ, with both
// values.
func diffOutcome(a, b outcome) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	var diffs []string
	for i := 0; i < av.NumField(); i++ {
		if x, y := av.Field(i).Interface(), bv.Field(i).Interface(); x != y {
			diffs = append(diffs, fmt.Sprintf("%s %+v vs %+v", av.Type().Field(i).Name, x, y))
		}
	}
	if len(diffs) == 0 {
		return "identical"
	}
	return "differs in " + strings.Join(diffs, "; ")
}

// measure is the untraced run. Repetitions cycle through the run's
// fabrics until the budget is spent, and always cover every fabric once
// and the first one twice, so each run checks exact repetition; a sharded
// workload then runs each fabric once more at shards=1 as the reference
// its outcome must match.
func measure(w workload, seed int64, budget time.Duration) *result {
	plans := make([]plan, fabricsPerRun)
	for k := range plans {
		plans[k] = makePlan(w, fabricSeed(seed, k))
	}
	res := &result{}
	deadline := time.Now().Add(budget)
	for i := 0; i <= fabricsPerRun || time.Now().Before(deadline); i++ {
		k := i % fabricsPerRun
		x := res.add(runRep(w, fabricSeed(seed, k), plans[k], repOpts{shards: w.shards}))
		x.fabric = k
	}
	reps := res.timed()
	byFabric := make([][]*rep, fabricsPerRun)
	for _, x := range reps {
		byFabric[x.fabric] = append(byFabric[x.fabric], x)
	}
	var offered, completed int
	var rtts []time.Duration
	for k, xs := range byFabric {
		res.checkRepeat(fmt.Sprintf("fabric%d", k), xs)
		if w.shards > 1 {
			ref := res.add(runRep(w, fabricSeed(seed, k), plans[k], repOpts{shards: 1}))
			ref.kind = repReference
			a, b := withoutCoord(xs[0].out), withoutCoord(ref.out)
			res.check(fmt.Sprintf("fabric%d.shard_equivalence", k), a == b,
				fmt.Sprintf("shards=%d vs shards=1: %s", w.shards, diffOutcome(a, b)), ref)
		}
		out := xs[0].out
		offered += out.Offered + len(plans[k].setup)
		completed += out.Completed + out.SetupAnswered
		rtts = append(rtts, xs[0].rtts...)
		res.lines = append(res.lines, fmt.Sprintf("fabric %d (seed %d): set-up conversations %d/%d answered, offered %d completed %d, events %d, conv_rtt p50 %v p99 %v",
			k, fabricSeed(seed, k), out.SetupAnswered, len(plans[k].setup), out.Offered, out.Completed, out.Events, out.RTTp50, out.RTTp99))
	}
	for i, x := range reps {
		res.lines = append(res.lines, fmt.Sprintf("rep %d fabric %d: setup %.4fs wall %.4fs cpu %.4fs events %d heap %.1fMB",
			i, x.fabric, x.setup.Seconds(), x.wall.Seconds(), x.cpu.Seconds(), x.out.Events, float64(x.heapPeak)/1e6))
	}
	slices.Sort(rtts)
	res.spreadMetric("events_per_s", "1/s", perRep(reps, func(x *rep) float64 { return float64(x.out.Events) / x.wall.Seconds() }))
	res.spreadMetric("events_per_cpu_s", "1/s", perRep(reps, func(x *rep) float64 { return float64(x.out.Events) / x.cpu.Seconds() }))
	res.spreadMetric("setup_s", "s", perRep(reps, func(x *rep) float64 { return x.setup.Seconds() }))
	res.spreadMetric("heap_peak_mb", "MB", perRep(reps, func(x *rep) float64 { return float64(x.heapPeak) / 1e6 }))
	res.metric("ops_ok_ratio", "ratio", ratio(float64(completed), float64(offered)))
	res.metric("conv_rtt_us.p50", "us", float64(quantileDur(rtts, 0.50).Nanoseconds())/1e3)
	res.metric("conv_rtt_us.p99", "us", float64(quantileDur(rtts, 0.99).Nanoseconds())/1e3)
	return res
}

func perRep(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, x := range reps {
		out[i] = f(x)
	}
	return out
}

// provenance identifies the machine, toolchain and source a result came
// from.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func provenanceOf(w workload, seed int64, traced bool, commit string) provenance {
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Workload: w.name, Seed: seed, Traced: traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Source: sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root (build
// output and hidden directories excluded), identifying the code measured
// when the checkout carries no commit.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
