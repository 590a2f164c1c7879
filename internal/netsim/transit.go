package netsim

import (
	"loopscope/internal/packet"
)

// NodeID identifies a router within a Network.
type NodeID int

// TransitPacket is a packet in flight through the simulator, carrying
// the forwarding metadata needed for ground truth and impact analysis.
type TransitPacket struct {
	Pkt packet.Packet
	// UID uniquely identifies the packet within a run (ICMP errors
	// get fresh UIDs).
	UID uint64
	// Injected is when the packet entered the network.
	Injected Time
	// Hops counts forwarding operations performed on the packet.
	Hops int
	// Visited lists the routers that forwarded the packet, in order.
	Visited []NodeID
	// LoopCount is the number of times the packet revisited a router
	// it had already passed through.
	LoopCount int
	// LoopSize is the router count of the first loop the packet was
	// caught in (distance between the two visits), 0 if never looped.
	LoopSize int
	// OnFate, when set, is invoked once with the packet's final
	// outcome. The traffic generator uses it to emulate closed-loop
	// transport behaviour (TCP stalls when its packets die in a
	// loop).
	OnFate func(Fate)
}

// revisit records a visit to node and reports whether it closes a
// forwarding cycle, returning the cycle length when it does.
func (tp *TransitPacket) revisit(node NodeID) (int, bool) {
	for i := len(tp.Visited) - 1; i >= 0; i-- {
		if tp.Visited[i] == node {
			return len(tp.Visited) - i, true
		}
	}
	return 0, false
}

// DropReason classifies why the simulator discarded a packet.
type DropReason int

// Drop reasons.
const (
	DropTTLExpired DropReason = iota
	DropNoRoute
	dropQueueFull
	dropLinkDown
	dropLineError
	numDropReasons
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropTTLExpired:
		return "ttl-expired"
	case DropNoRoute:
		return "no-route"
	case dropQueueFull:
		return "queue-full"
	case dropLinkDown:
		return "link-down"
	case dropLineError:
		return "line-error"
	default:
		return "unknown"
	}
}

// Fate records the final outcome of one packet.
type Fate struct {
	UID       uint64
	Delivered bool
	Reason    DropReason // valid when !Delivered
	At        Time
	Delay     Time // At - Injected
	Hops      int
	LoopCount int
	LoopSize  int
	Src       packet.Addr
	Dst       packet.Addr
	Class     packet.ClassMask
}

// groundTruthLoop is one observed forwarding-cycle event: a packet
// revisited a router. The recorder aggregates these by destination /24
// to form ground-truth loop intervals comparable with detector output.
type groundTruthLoop struct {
	At       Time
	Node     NodeID
	Dst      packet.Addr
	LoopSize int
	UID      uint64
}
