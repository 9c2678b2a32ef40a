package core

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// startRepair handles a unicast table miss for the frame's destination
// (§2.1.4): buffer the frame, then emulate an ARP exchange — tell src's
// edge bridge to flood a PathRequest (via PathFail), or flood it
// ourselves if we cannot reach src. It reports whether a new repair was
// actually created (false when one was already pending for dst, or when
// repair is disabled entirely).
func (b *Bridge) startRepair(f *netsim.Frame, v *layers.FrameView, now time.Duration) bool {
	if b.cfg.DisableRepair {
		b.stats.RepairDropped++
		return false
	}
	src, dst := v.SrcKey, v.DstKey
	r, pending := b.repairs[dst]
	if !pending {
		r = &repair{
			nonce: b.Rand().Uint32(), // per-bridge stream: shard-independent
			src:   v.Src,
		}
		b.repairs[dst] = r
		b.stats.RepairsStarted++
		r.timer = b.repairWheel().After(b.cfg.RepairTimeout, func() {
			b.stats.RepairDropped += uint64(len(r.buffered))
			for _, bf := range r.buffered {
				bf.Release()
			}
			r.buffered = nil
			delete(b.repairs, dst)
		})
		// Kick off the control exchange. On a transit bridge the frame
		// arrived on the very port that leads back to src, so the
		// PathFail goes out the ingress side; only src's edge bridge
		// converts the failure into the PathRequest flood.
		if e, ok := b.table.GetKey(src, now); ok {
			if b.IsEdge(e.Port) {
				// src hangs off this bridge: emulate its ARP Request.
				b.originatePathRequest(v.Src, v.Dst, r.nonce)
			} else {
				// Report the failure toward src's edge bridge, tearing
				// down stale dst entries en route.
				b.sendPathFail(e.Port, v.Src, v.Dst, r.nonce)
			}
		} else {
			// No route toward src at all: flood the request from here.
			b.originatePathRequest(v.Src, v.Dst, r.nonce)
		}
	}
	if len(r.buffered) >= b.cfg.RepairBuffer {
		b.stats.RepairDropped++
		return !pending
	}
	// Retain instead of copy: the buffered frame parks the pooled buffer
	// until the repair resolves (the explicit-Retain half of the netsim
	// ownership contract).
	r.buffered = append(r.buffered, f.Retain())
	return !pending
}

// completeRepair releases frames buffered for the packed destination dst
// now that a confirming reply has arrived via port out.
func (b *Bridge) completeRepair(dst uint64, out *netsim.Port, _ time.Duration) {
	r, ok := b.repairs[dst]
	if !ok {
		return
	}
	delete(b.repairs, dst)
	b.repairWheel().Stop(r.timer)
	for _, f := range r.buffered {
		b.stats.RepairReleased++
		b.stats.Forwarded++
		out.SendFrame(f)
		f.Release()
	}
	r.buffered = nil
}

// sendPathFail emits a PathFail toward src out the given port.
func (b *Bridge) sendPathFail(out *netsim.Port, src, dst layers.MAC, nonce uint32) {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: src, Src: b.MAC(), EtherType: layers.EtherTypePathCtl},
		&layers.PathCtl{Type: layers.PathCtlFail, BridgeID: uint64(b.NumID()), Src: src, Dst: dst, Nonce: nonce},
	)
	if err != nil {
		panic("core: serialize PathFail: " + err.Error())
	}
	b.stats.PathFailsSent++
	out.Send(frame)
}

// handlePathFail processes a PathFail addressed toward Src: clear the
// stale Dst entry, then either relay the failure toward Src or — if Src
// hangs off one of our edge ports — convert it into a PathRequest flood.
func (b *Bridge) handlePathFail(in *netsim.Port, f *netsim.Frame, v *layers.FrameView, now time.Duration) {
	if !v.HasCtl || v.Ctl.Type != layers.PathCtlFail {
		return
	}
	ctl := &v.Ctl
	// Tear down the stale path toward the unreachable destination.
	b.table.DeleteKey(ctl.Dst.Uint64())

	e, ok := b.table.GetKey(ctl.Src.Uint64(), now)
	switch {
	case ok && b.IsEdge(e.Port):
		// We are Src's edge bridge: emulate Src's ARP Request (§2.1.4).
		b.originatePathRequest(ctl.Src, ctl.Dst, ctl.Nonce)
	case ok && e.Port != in:
		// Keep walking toward Src.
		b.stats.PathFailsRelayed++
		e.Port.SendFrame(f)
	default:
		// Cannot make progress toward Src (entry missing or it points back
		// where the failure came from): flood the request from here.
		b.originatePathRequest(ctl.Src, ctl.Dst, ctl.Nonce)
	}
}

// originatePathRequest floods a PathRequest that the whole fabric treats
// exactly like an ARP Request broadcast from src: every bridge re-locks
// src's position, rebuilding the minimum-latency reverse path.
func (b *Bridge) originatePathRequest(src, dst layers.MAC, nonce uint32) {
	frame, err := layers.Serialize(
		// The frame is sourced from src's own MAC so the locking race
		// works unchanged; hosts never see it (bridges consume PathCtl).
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: src, EtherType: layers.EtherTypePathCtl},
		&layers.PathCtl{Type: layers.PathCtlRequest, BridgeID: uint64(b.NumID()), Src: src, Dst: dst, Nonce: nonce},
	)
	if err != nil {
		panic("core: serialize PathRequest: " + err.Error())
	}
	b.stats.PathRequestsSent++
	now := b.Now()
	// Re-arm the race window on src's current binding before flooding.
	// Without the guard, a copy of this very flood can loop back here over
	// a parallel link and steal the lock — which once corrupted a pair of
	// bridges into a permanent unicast ping-pong (see
	// TestRandomFailureSchedulesStayConnected). Guard (not Lock): the
	// entry must survive an unanswered repair, or the edge bridge would
	// forget its own attached host.
	var except *netsim.Port
	if e, ok := b.table.GetKey(src.Uint64(), now); ok {
		b.table.GuardKey(src.Uint64(), now)
		except = e.Port
	}
	b.stats.BroadcastRelayed++
	b.FloodBytesExcept(except, frame)
}

// answerPathRequest replies to a PathRequest when the requested
// destination hangs off one of this bridge's edge ports, completing the
// emulated ARP exchange on the host's behalf. Reports whether the request
// was consumed.
func (b *Bridge) answerPathRequest(in *netsim.Port, v *layers.FrameView, now time.Duration) bool {
	if v.Ctl.Type != layers.PathCtlRequest {
		return false
	}
	ctl := &v.Ctl
	e, ok := b.table.GetKey(ctl.Dst.Uint64(), now)
	if !ok || !b.IsEdge(e.Port) || e.Port == in {
		return false
	}
	// The request just locked Src to the ingress port; reply along it in
	// Dst's name, which confirms Dst's path at every bridge on the way.
	reply, err := layers.Serialize(
		&layers.Ethernet{Dst: ctl.Src, Src: ctl.Dst, EtherType: layers.EtherTypePathCtl},
		&layers.PathCtl{Type: layers.PathCtlReply, BridgeID: uint64(b.NumID()), Src: ctl.Src, Dst: ctl.Dst, Nonce: ctl.Nonce},
	)
	if err != nil {
		panic("core: serialize PathReply: " + err.Error())
	}
	b.stats.PathRepliesSent++
	in.Send(reply)
	// Also release any frames we were buffering for Dst ourselves.
	b.completeRepair(ctl.Dst.Uint64(), e.Port, now)
	return true
}
