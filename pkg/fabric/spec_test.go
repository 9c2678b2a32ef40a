package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

// specSamples are the shapes the five cmds compile their flags into, plus
// a fully spelled-out custom one.
func specSamples() []Spec {
	return []Spec{
		{Workload: WorkloadSpec{Kind: "all"}},
		{Workload: WorkloadSpec{Kind: "sweep"}},
		{Workload: WorkloadSpec{Kind: "ping"}, Topology: TopologySpec{Family: "figure2"}},
		{Workload: WorkloadSpec{Kind: "figure2-demo"}},
		{Workload: WorkloadSpec{Kind: "path-repair"}},
		{
			Seed:     7,
			Shards:   4,
			Topology: TopologySpec{Family: "ring", N: 8},
			Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"lock_timeout":"50ms","proxy":true}`)},
			Link:     LinkSpec{RateBps: 100_000_000, Delay: Duration(20 * time.Microsecond), QueueBytes: 64 << 10},
			Workload: WorkloadSpec{Kind: "allpairs"},
			Verify:   VerifySpec{Fingerprint: true},
		},
		{
			Workload: WorkloadSpec{Kind: "sweep"},
			Scenario: &ScenarioSpec{Topologies: []string{"grid"}, Faults: []string{"host-mobility"}, Seeds: 2},
			Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"proxy":true}`)},
		},
	}
}

// TestSpecRoundTripFixedPoint pins the codec contract: decode → defaults
// → encode → decode → defaults → encode reproduces the same bytes.
func TestSpecRoundTripFixedPoint(t *testing.T) {
	for _, s := range specSamples() {
		d1, err := s.WithDefaults()
		if err != nil {
			t.Fatalf("%+v: defaults: %v", s, err)
		}
		e1, err := d1.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s2, err := DecodeSpec(e1)
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, e1)
		}
		d2, err := s2.WithDefaults()
		if err != nil {
			t.Fatalf("re-defaults: %v", err)
		}
		e2, err := d2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("round trip is not a fixed point:\n--- first\n%s\n--- second\n%s", e1, e2)
		}
	}
}

// TestSpecStrictDecoding pins rejection of unknown fields at every level:
// top, nested, and inside a protocol config extension.
func TestSpecStrictDecoding(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"top-level", `{"workloadd": {"kind": "ping"}}`},
		{"nested", `{"workload": {"knd": "ping"}}`},
		{"topology", `{"topology": {"famly": "ring"}}`},
		{"trailing", `{"seed": 1} {"seed": 2}`},
		{"future-version", `{"version": 99}`},
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: decoded without error: %s", c.name, c.doc)
		}
	}

	// Unknown fields inside a protocol extension surface in WithDefaults,
	// where the registry's codec runs.
	s, err := DecodeSpec([]byte(`{"protocol": {"name": "arppath", "config": {"proxy": true, "bogus": 1}}}`))
	if err != nil {
		t.Fatalf("outer decode failed: %v", err)
	}
	if _, err := s.WithDefaults(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown protocol-config field not rejected: %v", err)
	}
}

// TestSpecUnknownNamesRejected covers protocol, topology-family and fault
// family validation.
func TestSpecUnknownNamesRejected(t *testing.T) {
	if _, err := (Spec{Protocol: ProtocolSpec{Name: "flow-path"}}).WithDefaults(); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad := Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Topologies: []string{"torus"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown sweep topology family accepted")
	}
	bad = Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Faults: []string{"meteor-strike"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown fault family accepted")
	}
}

// negativeDurationSpecs are protocol configs with one negative timer
// each, and the field the decode error must name. Unchecked, the first
// three panic inside Runner.Run and the learning aging silently becomes
// the default.
var negativeDurationSpecs = []struct{ protocol, config, field string }{
	{"arppath", `{"lock_timeout":"-5ms"}`, "lock_timeout"},
	{"flowpath", `{"pair_timeout":"-1s"}`, "pair_timeout"},
	{"stp", `{"forward_delay":"-1s"}`, "forward_delay"},
	{"learning", `{"aging":"-1s"}`, "aging"},
	{"arppath", `{"learned_timeout":-1}`, "learned_timeout"},
	{"arppath", `{"repair_timeout":"-1ms"}`, "repair_timeout"},
	{"arppath", `{"proxy_timeout":"-1ms"}`, "proxy_timeout"},
	{"flowpath", `{"lock_timeout":"-1ms"}`, "lock_timeout"},
	{"flowpath", `{"host_timeout":"-1ms"}`, "host_timeout"},
	{"flowpath", `{"repair_timeout":"-1ms"}`, "repair_timeout"},
	{"tcppath", `{"conn_lock_timeout":"-1ms"}`, "conn_lock_timeout"},
	{"tcppath", `{"conn_timeout":"-1ms"}`, "conn_timeout"},
	{"stp", `{"hello":"-1s"}`, "hello"},
	{"stp", `{"max_age":"-1s"}`, "max_age"},
	{"stp", `{"msg_age_increment":"-1s"}`, "msg_age_increment"},
	{"stp", `{"aging":"-1s"}`, "aging"},
}

func negativeDurationDoc(protocol, config string) []byte {
	return []byte(`{"protocol":{"name":"` + protocol + `","config":` + config + `}}`)
}

// badDurationSpec is one whole spec document with one duration out of
// [0, topo.MaxDuration], the field its error must name, and the same
// document with that field at zero (the default), which must decode.
type badDurationSpec struct{ name, doc, zero, field string }

// badDurationSpecs: the negative protocol timers above, protocol timers
// past the maximum — STP's 1500000h forward delay used to wrap its
// derived warm-up negative inside the builder — and the Spec's own
// durations, where a negative warm_up panicked in RunUntil and a warm_up
// near the int64 limit overflowed once the workload started.
func badDurationSpecs() []badDurationSpec {
	var out []badDurationSpec
	for _, c := range negativeDurationSpecs {
		out = append(out, badDurationSpec{c.protocol + "/" + c.field,
			string(negativeDurationDoc(c.protocol, c.config)),
			string(negativeDurationDoc(c.protocol, `{"`+c.field+`":"0s"}`)), c.field})
	}
	for _, c := range []struct{ protocol, field string }{
		{"stp", "forward_delay"}, {"stp", "hello"}, {"arppath", "lock_timeout"},
		{"flowpath", "pair_timeout"}, {"tcppath", "conn_timeout"}, {"learning", "aging"},
	} {
		out = append(out, badDurationSpec{c.protocol + "/" + c.field + "/over_max",
			string(negativeDurationDoc(c.protocol, `{"`+c.field+`":"1500000h"}`)),
			string(negativeDurationDoc(c.protocol, `{"`+c.field+`":"0s"}`)), c.field})
	}
	for _, c := range []struct{ name, field, wrap, value string }{
		{"spec/warm_up", "warm_up", `{%s}`, `"-1s"`},
		{"spec/warm_up/over_max", "warm_up", `{%s}`, `"2562047h47m16s"`},
		{"spec/link.delay", "link.delay", `{"link":{%s}}`, `"-1ms"`},
		{"spec/workload.interval", "workload.interval", `{"workload":{"kind":"ping",%s}}`, `"-1s"`},
		{"spec/workload.arrival", "workload.arrival", `{"workload":{"kind":"matrix",%s}}`, `"1001h"`},
		{"spec/scenario.fault_phase", "scenario.fault_phase", `{"workload":{"kind":"sweep"},"scenario":{%s}}`, `-1`},
		{"spec/scenario.quiesce", "scenario.quiesce", `{"workload":{"kind":"sweep"},"scenario":{%s}}`, `"1001h"`},
	} {
		key := `"` + c.field[strings.LastIndex(c.field, ".")+1:] + `":`
		out = append(out, badDurationSpec{c.name,
			fmt.Sprintf(c.wrap, key+c.value), fmt.Sprintf(c.wrap, key+`"0s"`), c.field})
	}
	return out
}

// TestSpecRejectsNegativeDurations: every protocol decoder and the Spec
// itself reject a duration outside [0, topo.MaxDuration] with an error
// naming the field, while zero still means "use the default" and the
// maximum itself is legal.
func TestSpecRejectsNegativeDurations(t *testing.T) {
	for _, c := range badDurationSpecs() {
		t.Run(c.name, func(t *testing.T) {
			s, err := DecodeSpec([]byte(c.doc))
			if err != nil {
				t.Fatalf("outer decode failed: %v", err)
			}
			_, err = s.WithDefaults()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("%s accepted or unnamed: %v", c.doc, err)
			}
			s, err = DecodeSpec([]byte(c.zero))
			if err != nil {
				t.Fatalf("outer decode of %s failed: %v", c.zero, err)
			}
			if _, err := s.WithDefaults(); err != nil {
				t.Fatalf("zero %s (the default) rejected: %v", c.field, err)
			}
			atMax := strings.Replace(c.zero, `"0s"`, `"`+topo.MaxDuration.String()+`"`, 1)
			if s, err = DecodeSpec([]byte(atMax)); err != nil {
				t.Fatalf("outer decode of %s failed: %v", atMax, err)
			}
			if _, err := s.WithDefaults(); err != nil {
				t.Fatalf("%s at the maximum rejected: %v", c.field, err)
			}
		})
	}
}

// TestSpecOptionsMatchesDefaultOptions pins that the Spec path compiles
// to exactly the Options the imperative path has always produced — the
// hinge of the cmds' byte-identical guarantee.
func TestSpecOptionsMatchesDefaultOptions(t *testing.T) {
	for _, p := range []string{"arppath", "stp", "learning"} {
		s, err := (Spec{Seed: 3, Protocol: ProtocolSpec{Name: p}}).WithDefaults()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Options()
		if err != nil {
			t.Fatal(err)
		}
		want := topo.DefaultOptions(topo.Protocol(p), 3)
		if got.Protocol != want.Protocol || got.Seed != want.Seed ||
			got.Link != want.Link || got.WarmUp != want.WarmUp {
			t.Fatalf("%s: spec options %+v, imperative %+v", p, got, want)
		}
		// Config values (behind the pointers) must agree too.
		switch p {
		case "arppath":
			if *got.ProtocolConfig.(*core.Config) != *want.ProtocolConfig.(*core.Config) {
				t.Fatalf("%s: config mismatch", p)
			}
		}
	}

	// The extension plumbs through: a proxy-enabled spec builds
	// proxy-enabled options, with the rest defaulted field-wise.
	s, err := (Spec{Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"proxy":true}`)}}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.ProtocolConfig.(*core.Config)
	if !cfg.Proxy || cfg.LockTimeout != core.DefaultConfig().LockTimeout {
		t.Fatalf("extension not plumbed/defaulted: %+v", cfg)
	}
}

// FuzzDecodeSpec fuzzes the strict decoder and the defaulting fixed
// point: any input that decodes and defaults must re-encode stably.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range specSamples() {
		if d, err := s.WithDefaults(); err == nil {
			if e, err := d.Encode(); err == nil {
				f.Add(e)
			}
		}
	}
	f.Add([]byte(`{}`))
	for _, c := range badDurationSpecs() {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(`{"workload":{"kind":"sweep"},"scenario":{"faults":["all"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		d1, err := s.WithDefaults()
		if err != nil {
			return
		}
		e1, err := d1.Encode()
		if err != nil {
			t.Fatalf("defaulted spec failed to encode: %v", err)
		}
		s2, err := DecodeSpec(e1)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-decode: %v\n%s", err, e1)
		}
		d2, err := s2.WithDefaults()
		if err != nil {
			t.Fatalf("canonical encoding failed to re-default: %v\n%s", err, e1)
		}
		e2, err := d2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("not a fixed point:\n--- first\n%s\n--- second\n%s", e1, e2)
		}
	})
}
