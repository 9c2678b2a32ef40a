package topo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/stp"
	"repro/internal/tables"
)

// Definition describes a bridging protocol to the builder. Registering one
// is all it takes to make a protocol buildable by every harness: the
// builder, the fabric Spec codec and the cmds consult the registry instead
// of switching on known names, so out-of-tree variants (Flow-Path,
// TCP-Path, wARP-Path, ...) plug in without touching this package.
type Definition struct {
	// Name is the protocol's registry key ("arppath", "stp", ...).
	Name Protocol

	// NewConfig returns a pointer to a zero value of the protocol's config
	// type. The Spec codec decodes JSON extensions into it; the builder
	// fills unset fields with ApplyDefaults.
	NewConfig func() any

	// ApplyDefaults fills unset (zero) fields of cfg field-wise, in place.
	// cfg is always a pointer produced by NewConfig (or a caller-supplied
	// pointer of the same type).
	ApplyDefaults func(cfg any)

	// WarmUp returns the convergence budget for a fabric built with cfg
	// (STP needs its listening/learning delays; ARP-Path needs HELLOs).
	WarmUp func(cfg any) time.Duration

	// New constructs one bridge on net. cfg is a pointer of the config
	// type, already defaulted.
	New func(net *netsim.Network, name string, numID int, cfg any) Bridge

	// DecodeConfig parses a JSON config extension (strictly: unknown
	// fields are rejected) into a config pointer. nil raw yields the
	// defaults. Optional; when nil, any non-empty extension is an error.
	DecodeConfig func(raw []byte) (any, error)

	// EncodeConfig renders cfg back to canonical JSON for spec
	// round-trips. Optional; when nil, specs encode no extension.
	EncodeConfig func(cfg any) ([]byte, error)
}

var protocolRegistry = map[Protocol]Definition{}

// RegisterProtocol adds a protocol to the registry. It panics on a
// duplicate name or an incomplete definition — registration happens in
// init() where a panic is a build-time error.
func RegisterProtocol(def Definition) {
	if def.Name == "" {
		panic("topo: RegisterProtocol with empty name")
	}
	if def.NewConfig == nil || def.ApplyDefaults == nil || def.WarmUp == nil || def.New == nil {
		panic(fmt.Sprintf("topo: protocol %q registered without NewConfig/ApplyDefaults/WarmUp/New", def.Name))
	}
	if _, dup := protocolRegistry[def.Name]; dup {
		panic(fmt.Sprintf("topo: protocol %q registered twice", def.Name))
	}
	protocolRegistry[def.Name] = def
}

// LookupProtocol returns the named protocol's definition.
func LookupProtocol(name Protocol) (Definition, bool) {
	def, ok := protocolRegistry[name]
	return def, ok
}

// Protocols lists every registered protocol name, sorted.
func Protocols() []Protocol {
	names := make([]Protocol, 0, len(protocolRegistry))
	for name := range protocolRegistry {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// strictUnmarshal decodes JSON rejecting unknown fields.
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A config extension is a single JSON value; trailing data is a typo.
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// --- in-tree protocol registrations ------------------------------------

// arpPathConfigJSON is the spec-file form of core.Config.
type arpPathConfigJSON struct {
	LockTimeout    Duration `json:"lock_timeout,omitempty"`
	LearnedTimeout Duration `json:"learned_timeout,omitempty"`
	RepairTimeout  Duration `json:"repair_timeout,omitempty"`
	RepairBuffer   int      `json:"repair_buffer,omitempty"`
	Proxy          bool     `json:"proxy,omitempty"`
	ProxyTimeout   Duration `json:"proxy_timeout,omitempty"`
	DisableRepair  bool     `json:"disable_repair,omitempty"`
	TableCapacity  int      `json:"table_capacity,omitempty"`
	TablePolicy    string   `json:"table_policy,omitempty"`
}

// stpTimersJSON is the spec-file form of stp.Timers.
type stpTimersJSON struct {
	Hello           Duration `json:"hello,omitempty"`
	MaxAge          Duration `json:"max_age,omitempty"`
	ForwardDelay    Duration `json:"forward_delay,omitempty"`
	MsgAgeIncrement Duration `json:"msg_age_increment,omitempty"`
	Aging           Duration `json:"aging,omitempty"`
}

// learningConfigJSON is the spec-file form of learning.Config.
type learningConfigJSON struct {
	Aging         Duration `json:"aging,omitempty"`
	TableCapacity int      `json:"table_capacity,omitempty"`
	TablePolicy   string   `json:"table_policy,omitempty"`
}

func init() {
	RegisterProtocol(Definition{
		Name:      ARPPath,
		NewConfig: func() any { return new(core.Config) },
		ApplyDefaults: func(cfg any) {
			c := cfg.(*core.Config)
			*c = c.WithDefaults()
		},
		WarmUp: func(any) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg any) Bridge {
			return core.New(net, name, numID, *cfg.(*core.Config))
		},
		DecodeConfig: func(raw []byte) (any, error) {
			var j arpPathConfigJSON
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &j); err != nil {
					return nil, err
				}
			}
			if err := errors.Join(
				j.LockTimeout.InRange("lock_timeout"),
				j.LearnedTimeout.InRange("learned_timeout"),
				j.RepairTimeout.InRange("repair_timeout"),
				j.ProxyTimeout.InRange("proxy_timeout"),
			); err != nil {
				return nil, err
			}
			if _, err := tables.ParseConfig(j.TableCapacity, j.TablePolicy); err != nil {
				return nil, err
			}
			return &core.Config{
				LockTimeout:    j.LockTimeout.D(),
				LearnedTimeout: j.LearnedTimeout.D(),
				RepairTimeout:  j.RepairTimeout.D(),
				RepairBuffer:   j.RepairBuffer,
				Proxy:          j.Proxy,
				ProxyTimeout:   j.ProxyTimeout.D(),
				DisableRepair:  j.DisableRepair,
				TableCapacity:  j.TableCapacity,
				TablePolicy:    j.TablePolicy,
			}, nil
		},
		EncodeConfig: func(cfg any) ([]byte, error) {
			c := cfg.(*core.Config)
			return json.Marshal(arpPathConfigJSON{
				LockTimeout:    Duration(c.LockTimeout),
				LearnedTimeout: Duration(c.LearnedTimeout),
				RepairTimeout:  Duration(c.RepairTimeout),
				RepairBuffer:   c.RepairBuffer,
				Proxy:          c.Proxy,
				ProxyTimeout:   Duration(c.ProxyTimeout),
				DisableRepair:  c.DisableRepair,
				TableCapacity:  c.TableCapacity,
				TablePolicy:    c.TablePolicy,
			})
		},
	})

	RegisterProtocol(Definition{
		Name:      STP,
		NewConfig: func() any { return new(stp.Timers) },
		ApplyDefaults: func(cfg any) {
			t := cfg.(*stp.Timers)
			*t = t.WithDefaults()
		},
		WarmUp: func(cfg any) time.Duration {
			t := cfg.(*stp.Timers)
			// Listening + learning on every port, plus hello propagation.
			return 2*t.ForwardDelay + 5*t.Hello
		},
		New: func(net *netsim.Network, name string, numID int, cfg any) Bridge {
			return stp.New(net, name, numID, 0x8000, *cfg.(*stp.Timers))
		},
		DecodeConfig: func(raw []byte) (any, error) {
			var j stpTimersJSON
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &j); err != nil {
					return nil, err
				}
			}
			if err := errors.Join(
				j.Hello.InRange("hello"),
				j.MaxAge.InRange("max_age"),
				j.ForwardDelay.InRange("forward_delay"),
				j.MsgAgeIncrement.InRange("msg_age_increment"),
				j.Aging.InRange("aging"),
			); err != nil {
				return nil, err
			}
			return &stp.Timers{
				Hello:           j.Hello.D(),
				MaxAge:          j.MaxAge.D(),
				ForwardDelay:    j.ForwardDelay.D(),
				MsgAgeIncrement: j.MsgAgeIncrement.D(),
				Aging:           j.Aging.D(),
			}, nil
		},
		EncodeConfig: func(cfg any) ([]byte, error) {
			t := cfg.(*stp.Timers)
			return json.Marshal(stpTimersJSON{
				Hello:           Duration(t.Hello),
				MaxAge:          Duration(t.MaxAge),
				ForwardDelay:    Duration(t.ForwardDelay),
				MsgAgeIncrement: Duration(t.MsgAgeIncrement),
				Aging:           Duration(t.Aging),
			})
		},
	})

	RegisterProtocol(Definition{
		Name:      Learning,
		NewConfig: func() any { return new(learning.Config) },
		ApplyDefaults: func(cfg any) {
			c := cfg.(*learning.Config)
			*c = c.WithDefaults()
		},
		WarmUp: func(any) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg any) Bridge {
			return learning.NewWithConfig(net, name, numID, *cfg.(*learning.Config))
		},
		DecodeConfig: func(raw []byte) (any, error) {
			var j learningConfigJSON
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &j); err != nil {
					return nil, err
				}
			}
			if err := j.Aging.InRange("aging"); err != nil {
				return nil, err
			}
			if _, err := tables.ParseConfig(j.TableCapacity, j.TablePolicy); err != nil {
				return nil, err
			}
			return &learning.Config{
				Aging:         j.Aging.D(),
				TableCapacity: j.TableCapacity,
				TablePolicy:   j.TablePolicy,
			}, nil
		},
		EncodeConfig: func(cfg any) ([]byte, error) {
			c := cfg.(*learning.Config)
			return json.Marshal(learningConfigJSON{
				Aging:         Duration(c.Aging),
				TableCapacity: c.TableCapacity,
				TablePolicy:   c.TablePolicy,
			})
		},
	})
}
