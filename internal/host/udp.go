package host

import (
	"fmt"

	"repro/internal/layers"
)

// Datagram is a received UDP payload with its source. Data is a private
// copy the receiver may retain — unless the socket opted into Borrow
// delivery, in which case it aliases the pooled frame and is valid only
// for the duration of the callback.
type Datagram struct {
	SrcIP   layers.Addr4
	SrcPort uint16
	Data    []byte
}

// UDPSocket is a bound UDP port on a host.
type UDPSocket struct {
	h      *Host
	port   uint16
	onRx   func(Datagram)
	borrow bool
	rx     uint64
	tx     uint64
	drops  uint64
}

// UDP binds port on the host. onRx is invoked for each received datagram
// on the simulation goroutine; it may be nil for transmit-only sockets.
func (h *Host) UDP(port uint16, onRx func(Datagram)) *UDPSocket {
	if _, taken := h.udp[port]; taken {
		panic(fmt.Sprintf("host %s: UDP port %d already bound", h.name, port))
	}
	s := &UDPSocket{h: h, port: port, onRx: onRx}
	h.udp[port] = s
	return s
}

// Close releases the port.
func (s *UDPSocket) Close() { delete(s.h.udp, s.port) }

// Borrow switches the socket to zero-copy delivery: Datagram.Data handed
// to onRx aliases the pooled frame buffer and is valid only until the
// callback returns. Receivers that never retain the payload (counters,
// request/response handlers that answer inline) skip a per-datagram copy
// on the hot path. Returns the socket for chaining at bind time.
func (s *UDPSocket) Borrow() *UDPSocket {
	s.borrow = true
	return s
}

// Port returns the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// Received returns the number of datagrams delivered to onRx.
func (s *UDPSocket) Received() uint64 { return s.rx }

// Sent returns the number of datagrams transmitted.
func (s *UDPSocket) Sent() uint64 { return s.tx }

// SendTo transmits payload to dst:dstPort. The layers are built in the
// host's scratch, so a send over a cached ARP binding allocates nothing;
// payload is not retained.
//
//fabric:hotpath
func (s *UDPSocket) SendTo(dst layers.Addr4, dstPort uint16, payload []byte) {
	s.tx++
	h := s.h
	h.txUDP = layers.UDP{SrcPort: s.port, DstPort: dstPort, SrcIP: h.ip, DstIP: dst}
	h.txPay = payload
	h.sendIP(dst, layers.IPProtoUDP, &h.txUDP, &h.txPay)
	h.txPay = nil
}

// handleUDP dispatches a received UDP datagram to its socket.
func (h *Host) handleUDP(ip *layers.IPv4) {
	var u layers.UDP
	if u.DecodeFromBytes(ip.Payload()) != nil {
		return
	}
	if u.VerifyChecksum(ip.Src, ip.Dst) != nil {
		return
	}
	s, ok := h.udp[u.DstPort]
	if !ok {
		h.stats.DroppedUnknownProto++
		return
	}
	s.rx++
	if s.onRx != nil {
		// The frame buffer is pooled and recycled after delivery, but
		// sockets routinely retain datagrams past the callback (tests,
		// request/response apps), so hand them a private copy — unless the
		// socket declared itself borrow-safe.
		data := u.Payload()
		if !s.borrow {
			data = append([]byte(nil), data...)
		}
		s.onRx(Datagram{SrcIP: ip.Src, SrcPort: u.SrcPort, Data: data})
	}
}
