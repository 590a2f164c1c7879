package netsim

import (
	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// Router is one forwarding node. Its FIB maps destination prefixes to
// outgoing links; routing protocols mutate the FIB via SetRoute /
// RemoveRoute as their own timers fire, which is what produces
// transient forwarding loops.
type Router struct {
	net  *Network
	ID   NodeID
	Name string
	// Loopback is the router's own address, used as the source of the
	// ICMP errors it generates.
	Loopback packet.Addr

	fib   *routing.Table[*Link]
	local *routing.Table[struct{}]
	links []*Link

	lastICMP    Time
	icmpPrimed  bool
	onLinkDown  []func(*Link)
	onLinkUp    []func(*Link)
	fibRevision uint64
}

// Links returns the router's outgoing links.
func (r *Router) Links() []*Link { return r.links }

// LinkTo returns the outgoing link whose far end is the given router,
// or nil.
func (r *Router) LinkTo(id NodeID) *Link {
	for _, l := range r.links {
		if l.To.ID == id {
			return l
		}
	}
	return nil
}

// AttachPrefix marks prefix as locally delivered at this router (a
// customer network or peering exit hanging off it).
func (r *Router) AttachPrefix(p routing.Prefix) {
	r.local.Insert(p, struct{}{})
}

// LocalPrefixes returns the prefixes attached to this router.
func (r *Router) LocalPrefixes() []routing.Prefix {
	var out []routing.Prefix
	r.local.Walk(func(p routing.Prefix, _ struct{}) bool {
		out = append(out, p)
		return true
	})
	return out
}

// SetRoute points prefix at the link towards the via router. It
// applies immediately: protocols model FIB-update latency by delaying
// the call. Setting a route towards a node with no link panics — that
// is a protocol bug, not a runtime condition.
func (r *Router) SetRoute(p routing.Prefix, via NodeID) {
	l := r.LinkTo(via)
	if l == nil {
		panic("netsim: SetRoute towards non-neighbor " + r.net.Router(via).Name)
	}
	r.fib.Insert(p, l)
	r.fibRevision++
}

// RemoveRoute deletes the FIB entry for prefix.
func (r *Router) RemoveRoute(p routing.Prefix) {
	r.fib.Remove(p)
	r.fibRevision++
}

// RouteVia returns the neighbor the FIB currently points at for an
// address, for tests and protocol debugging.
func (r *Router) RouteVia(addr packet.Addr) (NodeID, bool) {
	l, _, ok := r.fib.Lookup(addr)
	if !ok {
		return 0, false
	}
	return l.To.ID, true
}

// FIBRevision increments on every FIB change; the ground-truth
// recorder uses it to bound loop windows.
func (r *Router) FIBRevision() uint64 { return r.fibRevision }

// OnLinkDown registers a callback invoked (after the link's detection
// delay) when an attached outgoing link fails.
func (r *Router) OnLinkDown(fn func(*Link)) { r.onLinkDown = append(r.onLinkDown, fn) }

// OnLinkUp registers a callback invoked when an attached outgoing link
// is repaired.
func (r *Router) OnLinkUp(fn func(*Link)) { r.onLinkUp = append(r.onLinkUp, fn) }

// receive handles a packet arriving at (or injected into) the router.
func (r *Router) receive(tp *TransitPacket) {
	// Local delivery?
	if _, _, ok := r.local.Lookup(tp.Pkt.IP.Dst); ok {
		r.net.deliver(r, tp)
		return
	}
	// Transit: record the visit and detect forwarding cycles.
	if size, looped := tp.revisit(r.ID); looped {
		tp.LoopCount++
		if tp.LoopSize == 0 {
			tp.LoopSize = size
		}
		r.net.recordLoop(groundTruthLoop{
			At:       r.net.Sim.Now(),
			Node:     r.ID,
			Dst:      tp.Pkt.IP.Dst,
			LoopSize: size,
			UID:      tp.UID,
		})
	}
	tp.Visited = append(tp.Visited, r.ID)
	tp.Hops++

	if tp.Pkt.IP.TTL <= 1 {
		tp.Pkt.IP.TTL = 0
		r.net.drop(tp, DropTTLExpired)
		r.maybeSendTimeExceeded(tp)
		return
	}
	tp.Pkt.IP.TTL--

	l, _, ok := r.fib.Lookup(tp.Pkt.IP.Dst)
	if !ok {
		r.net.drop(tp, DropNoRoute)
		return
	}
	l.send(tp)
}

// maybeSendTimeExceeded emits an ICMP time-exceeded error towards the
// expired packet's source, subject to the router's ICMP rate limit.
// Errors are never generated about ICMP errors (RFC 1812).
func (r *Router) maybeSendTimeExceeded(tp *TransitPacket) {
	if tp.Pkt.Kind == packet.KindICMP {
		t := tp.Pkt.ICMP.Type
		if t == packet.ICMPTimeExceeded || t == packet.ICMPUnreachable {
			return
		}
	}
	now := r.net.Sim.Now()
	if r.icmpPrimed && now-r.lastICMP < r.net.ICMPMinInterval {
		return
	}
	r.lastICMP = now
	r.icmpPrimed = true

	icmp := packet.Packet{
		IP: packet.IPv4Header{
			Version:  4,
			IHL:      5,
			TTL:      255,
			Protocol: packet.ProtoICMP,
			Src:      r.Loopback,
			Dst:      tp.Pkt.IP.Src,
			ID:       r.net.nextIPID(),
		},
		Kind:         packet.KindICMP,
		ICMP:         packet.ICMPHeader{Type: packet.ICMPTimeExceeded},
		HasTransport: true,
		// Original IP header + first 8 bytes of its payload.
		PayloadLen:  packet.IPv4HeaderLen + 8,
		PayloadSeed: tp.UID,
	}
	r.net.Inject(r, icmp)
}
