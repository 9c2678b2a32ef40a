package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// lastLine runs the command line and decodes its final JSON line.
func lastLine(t *testing.T, args ...string) (code int, res struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\n%s", err, out.String(), errb.String())
	}
	return code, res
}

func checkMetrics(t *testing.T, want []struct{ Name, Unit string }, got map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	spec := loadSpec(t)
	code, res := lastLine(t, "--workload", "steady_forward", "--seed", "3", "--seconds", "0.001", "--trace", "0")
	if code != 0 || !res.Correct || res.Attempted <= fabricsPerRun || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	checkMetrics(t, spec.EndToEnd, res.Metrics)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func TestPerLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run with replays")
	}
	spec := loadSpec(t)
	t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
	code, res := lastLine(t, "--workload", "steady_forward", "--seed", "3", "--seconds", "0.001", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	checkMetrics(t, spec.PerLayer, res.Metrics)
	for _, name := range []string{"coord.windows", "coord.exchanged", "tables.evictions", "netsim.live_frames_end"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on steady_forward, want 0", name, v)
		}
	}
	for _, name := range []string{"sim.events", "core.onframe_calls", "sim.replay_ns_per_event", "core.table_lookup_ns"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// A repetition that diverges from the first, or leaks a frame, must turn
// the result incorrect and count as failed.
func TestCorrectnessFailureIsReported(t *testing.T) {
	good := rep{out: outcome{Events: 10}}
	diverged := good
	diverged.out.Events++
	leaked := good
	leaked.out.LiveEnd = 1
	res := &result{}
	reps := []*rep{res.add(good), res.add(diverged), res.add(leaked)}
	res.checkRepeat("fabric0", reps)
	res.metric("events_per_s", "1/s", 1)
	if res.correct() {
		t.Fatal("diverging repetitions reported correct")
	}
	var out bytes.Buffer
	res.report(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Attempted != 3 || last.Failed != 2 {
		t.Fatalf("result %+v, want correct=false attempted=3 failed=2", last)
	}
	if !strings.Contains(out.String(), "fabric0.repeatable[1] FAILED") || !strings.Contains(out.String(), "fabric0.live_frames[2] FAILED") {
		t.Fatalf("failed checks not named:\n%s", out.String())
	}
}
