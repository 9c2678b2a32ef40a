package flowpath

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tables"
	"repro/internal/topo"
)

// Registry names of the All-Path variants.
const (
	// ProtoFlowPath locks one path per {src, dst} host pair.
	ProtoFlowPath topo.Protocol = "flowpath"
	// ProtoTCPPath locks one path per TCP connection, ARP-Path otherwise.
	ProtoTCPPath topo.Protocol = "tcppath"
)

// flowConfigJSON is the spec-file form of Config.
type flowConfigJSON struct {
	LockTimeout   topo.Duration `json:"lock_timeout,omitempty"`
	PairTimeout   topo.Duration `json:"pair_timeout,omitempty"`
	HostTimeout   topo.Duration `json:"host_timeout,omitempty"`
	RepairTimeout topo.Duration `json:"repair_timeout,omitempty"`
	RepairBuffer  int           `json:"repair_buffer,omitempty"`
	PairCapacity  int           `json:"pair_capacity,omitempty"`
	PairPolicy    string        `json:"pair_policy,omitempty"`
}

// tcpConfigJSON is the spec-file form of TCPConfig. The embedded
// ARP-Path fallback keeps its defaults: the variant's own knobs are the
// extension surface, exactly like the in-tree protocols expose only what
// a spec can meaningfully sweep.
type tcpConfigJSON struct {
	ConnLockTimeout topo.Duration `json:"conn_lock_timeout,omitempty"`
	ConnTimeout     topo.Duration `json:"conn_timeout,omitempty"`
	ConnCapacity    int           `json:"conn_capacity,omitempty"`
	ConnPolicy      string        `json:"conn_policy,omitempty"`
}

// strictUnmarshal decodes JSON rejecting unknown fields (the registry's
// contract for config extensions).
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

func init() {
	topo.RegisterProtocol(topo.Definition{
		Name:      ProtoFlowPath,
		NewConfig: func() any { return new(Config) },
		ApplyDefaults: func(cfg any) {
			c := cfg.(*Config)
			*c = c.WithDefaults()
		},
		WarmUp: func(any) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg any) topo.Bridge {
			return New(net, name, numID, *cfg.(*Config))
		},
		DecodeConfig: func(raw []byte) (any, error) {
			var j flowConfigJSON
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &j); err != nil {
					return nil, err
				}
			}
			if err := errors.Join(
				j.LockTimeout.InRange("lock_timeout"),
				j.PairTimeout.InRange("pair_timeout"),
				j.HostTimeout.InRange("host_timeout"),
				j.RepairTimeout.InRange("repair_timeout"),
			); err != nil {
				return nil, err
			}
			if _, err := tables.ParseConfig(j.PairCapacity, j.PairPolicy); err != nil {
				return nil, err
			}
			return &Config{
				LockTimeout:   j.LockTimeout.D(),
				PairTimeout:   j.PairTimeout.D(),
				HostTimeout:   j.HostTimeout.D(),
				RepairTimeout: j.RepairTimeout.D(),
				RepairBuffer:  j.RepairBuffer,
				PairCapacity:  j.PairCapacity,
				PairPolicy:    j.PairPolicy,
			}, nil
		},
		EncodeConfig: func(cfg any) ([]byte, error) {
			c := cfg.(*Config)
			return json.Marshal(flowConfigJSON{
				LockTimeout:   topo.Duration(c.LockTimeout),
				PairTimeout:   topo.Duration(c.PairTimeout),
				HostTimeout:   topo.Duration(c.HostTimeout),
				RepairTimeout: topo.Duration(c.RepairTimeout),
				RepairBuffer:  c.RepairBuffer,
				PairCapacity:  c.PairCapacity,
				PairPolicy:    c.PairPolicy,
			})
		},
	})

	topo.RegisterProtocol(topo.Definition{
		Name:      ProtoTCPPath,
		NewConfig: func() any { return new(TCPConfig) },
		ApplyDefaults: func(cfg any) {
			c := cfg.(*TCPConfig)
			*c = c.WithDefaults()
		},
		WarmUp: func(any) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg any) topo.Bridge {
			return NewTCPPath(net, name, numID, *cfg.(*TCPConfig))
		},
		DecodeConfig: func(raw []byte) (any, error) {
			var j tcpConfigJSON
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &j); err != nil {
					return nil, err
				}
			}
			if err := errors.Join(
				j.ConnLockTimeout.InRange("conn_lock_timeout"),
				j.ConnTimeout.InRange("conn_timeout"),
			); err != nil {
				return nil, err
			}
			if _, err := tables.ParseConfig(j.ConnCapacity, j.ConnPolicy); err != nil {
				return nil, err
			}
			return &TCPConfig{
				ARPPath:         core.Config{},
				ConnLockTimeout: j.ConnLockTimeout.D(),
				ConnTimeout:     j.ConnTimeout.D(),
				ConnCapacity:    j.ConnCapacity,
				ConnPolicy:      j.ConnPolicy,
			}, nil
		},
		EncodeConfig: func(cfg any) ([]byte, error) {
			c := cfg.(*TCPConfig)
			return json.Marshal(tcpConfigJSON{
				ConnLockTimeout: topo.Duration(c.ConnLockTimeout),
				ConnTimeout:     topo.Duration(c.ConnTimeout),
				ConnCapacity:    c.ConnCapacity,
				ConnPolicy:      c.ConnPolicy,
			})
		},
	})
}
