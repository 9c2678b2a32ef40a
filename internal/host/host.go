// Package host implements the simulated end stations of the demo: an
// unmodified Ethernet/ARP/IPv4 stack with ICMP echo, UDP sockets and the
// TCP-lite reliable transport. Hosts are deliberately ordinary — the
// paper's central transparency claim (§2.2) is that ARP-Path needs no host
// changes, so everything here is plain textbook networking with no
// knowledge of the bridging protocol underneath.
package host

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Stats counts host-level traffic.
type Stats struct {
	FramesRx, FramesTx   uint64
	ARPRequestsTx        uint64
	ARPRepliesTx         uint64
	ARPResolves          uint64 // successful resolutions
	ARPFailures          uint64 // resolutions that timed out
	EchoRequestsRx       uint64
	EchoRepliesTx        uint64
	IPRx, IPTx           uint64
	DroppedUnknownProto  uint64
	DroppedPendingARP    uint64 // packets dropped from a full pending queue
	DroppedForeignFrames uint64 // frames not addressed to this host
}

// Host is one simulated end station. It normally has a single NIC; for
// mobility scenarios it may be cabled to several ports with at most one
// link up at a time (a station that re-homes to another edge bridge), and
// it always transmits on its first up port.
type Host struct {
	net   *netsim.Network
	name  string
	mac   layers.MAC
	ip    layers.Addr4
	ports []*netsim.Port

	proc  *sim.Proc
	num   int
	rng   *rand.Rand // see rand
	arp   *arpCache
	icmp  *icmpEndpoint
	udp   map[uint16]*UDPSocket
	tcp   *tcpHost
	stats Stats

	// Reusable transmit scratch for sendResolved, and the UDP layers
	// UDPSocket.SendTo fills in. Safe to share across sends: serialization
	// is synchronous and Port.Send copies the bytes into a pooled frame
	// before returning.
	txBuf *layers.SerializeBuffer
	txEth layers.Ethernet
	txIP  layers.IPv4
	txUDP layers.UDP
	txPay layers.Payload
	txLs  [6]layers.SerializableLayer
}

// New creates host number n named name: MAC 02:00:00::n, IP 10.0.n.
func New(net *netsim.Network, name string, n int) *Host {
	h := &Host{
		net:   net,
		name:  name,
		mac:   layers.HostMAC(n),
		ip:    layers.HostIP(n),
		udp:   make(map[uint16]*UDPSocket),
		txBuf: layers.NewSerializeBuffer(),
	}
	h.arp = newARPCache(h, DefaultARPConfig())
	h.icmp = newICMPEndpoint(h)
	h.tcp = newTCPHost(h)
	net.AddNode(h)
	h.proc = net.Proc(name)
	h.num = n
	return h
}

// rand returns the host's own random stream (TCP ISNs): a function of the
// network seed and the host number, never of event interleaving, so draws
// are identical at any shard count. It is created on first use — seeding
// costs more than building the rest of the host, and most hosts never
// open a TCP connection.
func (h *Host) rand() *rand.Rand {
	if h.rng == nil {
		h.rng = rand.New(rand.NewSource(h.net.Seed() ^ (int64(h.num)+1)*0x2545F4914F6CDD1D))
	}
	return h.rng
}

// Name implements netsim.Node.
func (h *Host) Name() string { return h.name }

// MAC returns the host's hardware address.
func (h *Host) MAC() layers.MAC { return h.mac }

// IP returns the host's IPv4 address.
func (h *Host) IP() layers.Addr4 { return h.ip }

// Net returns the owning network.
func (h *Host) Net() *netsim.Network { return h.net }

// Stats returns a snapshot of the traffic counters.
func (h *Host) Stats() Stats { return h.stats }

// ARP returns the host's ARP resolver (exposed for experiments measuring
// cache behaviour).
func (h *Host) ARP() *ARPView { return &ARPView{h.arp} }

// now returns the current virtual time (the host's shard clock).
func (h *Host) now() time.Duration { return h.proc.Now() }

// Now returns the current virtual time as this host observes it —
// application code (internal/host/app) must use this, not the network's
// control clock, which stands still during parallel windows.
func (h *Host) Now() time.Duration { return h.proc.Now() }

// Sched returns the host's scheduling identity; all host timers go
// through it (sim.Proc), keeping event order shard-independent.
func (h *Host) Sched() *sim.Proc { return h.proc }

// After schedules fn d from now under the host's identity. Application
// code driving a host (internal/host/app) must use this, not the engine.
func (h *Host) After(d time.Duration, fn func()) *sim.Timer {
	return h.proc.After(d, fn)
}

// AttachPort implements netsim.Node.
func (h *Host) AttachPort(p *netsim.Port) { h.ports = append(h.ports, p) }

// Port returns the host's active NIC port: the first attached port whose
// link is up (or the first port if all are down). It panics when the host
// was never cabled.
func (h *Host) Port() *netsim.Port {
	if len(h.ports) == 0 {
		panic(fmt.Sprintf("host %s: no NIC attached", h.name))
	}
	for _, p := range h.ports {
		if p.Up() {
			return p
		}
	}
	return h.ports[0]
}

// PortStatusChanged implements netsim.Node. Hosts keep their state across
// link flaps; TCP retransmission handles the outage.
func (h *Host) PortStatusChanged(_ *netsim.Port, _ bool) {}

// send transmits a fully framed packet on the active port.
func (h *Host) send(frame []byte) {
	h.stats.FramesTx++
	h.Port().Send(frame)
}

// HandleFrame implements netsim.Node: the NIC filter plus protocol
// dispatch. The frame is borrowed (netsim ownership contract); the host
// consumes it synchronously, and any payload that outlives this call —
// UDP datagrams handed to sockets — is copied on the way out.
func (h *Host) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if v.Dst != h.mac && !v.Dst.IsBroadcast() {
		h.stats.DroppedForeignFrames++
		return
	}
	h.stats.FramesRx++
	var eth layers.Ethernet
	if eth.DecodeFromBytes(f.Bytes()) != nil {
		return
	}
	switch eth.EtherType {
	case layers.EtherTypeARP:
		h.arp.handleFrame(&eth)
	case layers.EtherTypeIPv4:
		h.handleIPv4(&eth)
	default:
		// PathCtl, BPDUs, anything else: hosts ignore bridge traffic.
		h.stats.DroppedUnknownProto++
	}
}

// handleIPv4 dispatches a received IPv4 packet.
func (h *Host) handleIPv4(eth *layers.Ethernet) {
	var ip layers.IPv4
	if ip.DecodeFromBytes(eth.Payload()) != nil {
		return
	}
	if ip.Dst != h.ip && !ip.Dst.IsBroadcast() {
		return
	}
	h.stats.IPRx++
	switch ip.Protocol {
	case layers.IPProtoICMP:
		h.icmp.handle(&ip)
	case layers.IPProtoUDP:
		h.handleUDP(&ip)
	case layers.IPProtoTCPLite:
		h.tcp.handle(&ip)
	default:
		h.stats.DroppedUnknownProto++
	}
}

// sendIP resolves dst's MAC and transmits the transport layers under an
// IPv4 header. Packets are queued while resolution is in flight.
//
// The cached-binding case — every packet of an established conversation —
// goes straight to sendResolved. On a miss the transport layers are
// serialized now and only their bytes wait for the ARP exchange: the
// layers may alias memory the caller does not own past this call (an echo
// reply's payload is a view of the borrowed request frame, which is back
// in the frame pool by the time the reply can leave).
func (h *Host) sendIP(dst layers.Addr4, proto uint8, transport ...layers.SerializableLayer) {
	if mac, ok := h.arp.lookup(dst); ok {
		h.sendResolved(mac, dst, proto, transport...)
		return
	}
	seg, err := layers.Serialize(transport...)
	if err != nil {
		panic(fmt.Sprintf("host %s: serialize: %v", h.name, err))
	}
	h.arp.resolve(dst, func(mac layers.MAC, err error) {
		if err != nil {
			return // resolution failed; transports retransmit on their own
		}
		pl := layers.Payload(seg)
		h.sendResolved(mac, dst, proto, &pl)
	})
}

// sendResolved frames the transport layers for a resolved next hop and
// transmits them. It serializes into the host's reusable scratch and
// retains nothing, so neither the layers nor the variadic slice escape:
// a send with host-owned layers allocates nothing.
//
//fabric:hotpath
func (h *Host) sendResolved(mac layers.MAC, dst layers.Addr4, proto uint8, transport ...layers.SerializableLayer) {
	h.txEth = layers.Ethernet{Dst: mac, Src: h.mac, EtherType: layers.EtherTypeIPv4}
	h.txIP = layers.IPv4{TTL: 64, Protocol: proto, Src: h.ip, Dst: dst}
	ls := h.txLs[:2+len(transport)]
	ls[0], ls[1] = &h.txEth, &h.txIP
	copy(ls[2:], transport)
	err := layers.SerializeLayers(h.txBuf, layers.FixAll, ls...)
	clear(ls[2:]) // drop references to the caller's layers
	if err != nil {
		panic(fmt.Sprintf("host %s: serialize: %v", h.name, err))
	}
	h.stats.IPTx++
	h.send(h.txBuf.Bytes())
}
