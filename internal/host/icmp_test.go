package host

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// echoPayload decodes an ICMP echo of the given type from a wire frame and
// returns a copy of its payload.
func echoPayload(frame []byte, typ uint8) ([]byte, bool) {
	var eth layers.Ethernet
	var ip layers.IPv4
	var echo layers.ICMPEcho
	if eth.DecodeFromBytes(frame) != nil || eth.EtherType != layers.EtherTypeIPv4 ||
		ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoICMP ||
		echo.DecodeFromBytes(ip.Payload()) != nil || echo.Type != typ {
		return nil, false
	}
	return append([]byte(nil), echo.Payload()...), true
}

// TestEchoReplyAfterARPMissKeepsRequestPayload is the regression test for
// a use-after-release: the echo reply's payload is a view of the borrowed
// request frame, and when the responder has to resolve the requester's
// address first, the reply waits for the ARP exchange — by which time the
// request frame is back in the pool and may hold another frame's bytes.
// The responder's cache is flushed so the reply takes the miss path, and
// the frame pool is cycled with garbage while resolution is pending; the
// reply on the wire must still echo the request byte for byte.
func TestEchoReplyAfterARPMissKeepsRequestPayload(t *testing.T) {
	net, h1, h2 := pair(1)
	ok := false
	h1.Ping(h2.IP(), 56, time.Second, func(r PingResult) { ok = r.Err == nil })
	net.RunFor(time.Second)
	if !ok {
		t.Fatal("warm-up ping failed")
	}
	h2.ARP().Flush()

	garbage := bytes.Repeat([]byte{0xAA}, layers.MaxFrameLen)
	cycled := false
	cyclePool := func() {
		// Drain the pool (the released request buffer included) through
		// frames that overwrite every byte, then return them.
		var held []*netsim.Frame
		for i := 0; i < 64; i++ {
			held = append(held, netsim.NewFrame(garbage))
		}
		for _, f := range held {
			f.Release()
		}
		cycled = true
	}
	var request, reply []byte
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapSend {
			return
		}
		switch ev.From.Node() {
		case h1:
			if p, ok := echoPayload(ev.Frame, layers.ICMPEchoRequest); ok {
				request = p
			}
		case h2:
			if p, ok := echoPayload(ev.Frame, layers.ICMPEchoReply); ok {
				reply = p
			}
			var eth layers.Ethernet
			if eth.DecodeFromBytes(ev.Frame) == nil && eth.EtherType == layers.EtherTypeARP && !cycled {
				// h2 is resolving h1 inside its handling of the request;
				// cycle the pool once that frame has been released.
				net.Engine.After(time.Nanosecond, cyclePool)
			}
		}
	})
	ok = false
	h1.Ping(h2.IP(), 56, time.Second, func(r PingResult) { ok = r.Err == nil })
	net.RunFor(time.Second)

	if !cycled {
		t.Fatal("responder never took the ARP-miss path; the test is vacuous")
	}
	if !ok {
		t.Fatal("ping after the responder's ARP flush failed")
	}
	if request == nil || reply == nil {
		t.Fatalf("missing echo on the wire: request %v, reply %v", request != nil, reply != nil)
	}
	if !bytes.Equal(request, reply) {
		t.Fatalf("echo reply payload differs from the request's:\nrequest % x\nreply   % x", request, reply)
	}
	if n := net.LiveFrames(); n != 0 {
		t.Fatalf("%d frames live after drain", n)
	}
}
