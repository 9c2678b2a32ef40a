package app

import (
	"time"

	"repro/internal/host"
	"repro/internal/layers"
)

// FlowConfig describes one constant-bit-rate UDP flow.
type FlowConfig struct {
	DstIP       layers.Addr4
	DstPort     uint16
	SrcPort     uint16
	PayloadSize int           // bytes per datagram
	Interval    time.Duration // datagram spacing
	Count       int           // datagrams to send
}

// FlowResult summarizes one finished flow.
type FlowResult struct {
	Sent     int
	Received int // filled by the matching sink
}

// Sink counts datagrams arriving at a UDP port.
type Sink struct {
	count int
}

// NewSink binds a counting receiver on h:port. The sink never reads the
// payload, so it takes borrowed (zero-copy) delivery.
func NewSink(h *host.Host, port uint16) *Sink {
	s := &Sink{}
	h.UDP(port, func(host.Datagram) { s.count++ }).Borrow()
	return s
}

// Count returns the datagrams received so far.
func (s *Sink) Count() int { return s.count }

// StartFlow sends cfg.Count datagrams from h per cfg and calls done with
// the sender-side result when the last datagram has been handed to the
// stack.
func StartFlow(h *host.Host, cfg FlowConfig, done func(FlowResult)) {
	if cfg.Count <= 0 || cfg.PayloadSize < 0 || cfg.Interval <= 0 {
		panic("app: invalid flow config")
	}
	sock := h.UDP(cfg.SrcPort, nil)
	payload := make([]byte, cfg.PayloadSize)
	sched := h.Sched()
	sent := 0
	var tick func()
	tick = func() {
		sock.SendTo(cfg.DstIP, cfg.DstPort, payload)
		sent++
		if sent < cfg.Count {
			// The flow never cancels a tick, so the pooled handle-free
			// event is enough; it consumes the same per-host sequence
			// number a Timer would, keeping event keys unchanged.
			sched.Schedule(sched.Now()+cfg.Interval, tick)
			return
		}
		if done != nil {
			done(FlowResult{Sent: sent})
		}
	}
	tick()
}
