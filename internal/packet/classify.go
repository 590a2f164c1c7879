package packet

import "strings"

// ClassMask is a bit set of the traffic-type categories used by the
// paper's Figures 5 and 6. A single packet can fall into several
// categories: a TCP SYN-ACK is counted under TCP, SYN and ACK.
type ClassMask uint16

// Traffic-type categories, in the order the paper plots them.
const (
	classTCP ClassMask = 1 << iota
	classACK
	classPSH
	classRST
	classURG
	ClassSYN
	classFIN
	classUDP
	classMcast
	ClassICMP
	classOther

	numClasses = 11
)

// ClassNames lists the category labels in plot order.
var ClassNames = [numClasses]string{
	"TCP", "ACK", "PSH", "RST", "URG", "SYN", "FIN",
	"UDP", "MCAST", "ICMP", "OTHER",
}

// ClassIndex converts a single-bit mask to its plot-order index, or -1
// when the mask is not a single known bit.
func ClassIndex(m ClassMask) int {
	for i := 0; i < numClasses; i++ {
		if m == 1<<i {
			return i
		}
	}
	return -1
}

// String renders the mask as a +-joined category list.
func (m ClassMask) String() string {
	var parts []string
	for i := 0; i < numClasses; i++ {
		if m&(1<<i) != 0 {
			parts = append(parts, ClassNames[i])
		}
	}
	if len(parts) == 0 {
		return "NONE"
	}
	return strings.Join(parts, "+")
}

// Classify assigns a packet to every category it belongs to, following
// the paper: protocol class first, per-flag classes for TCP, MCAST for
// multicast destinations regardless of protocol.
func Classify(p *Packet) ClassMask {
	var m ClassMask
	switch p.Kind {
	case KindTCP:
		m |= classTCP
		if p.HasTransport {
			f := p.TCP.Flags
			if f&TCPAck != 0 {
				m |= classACK
			}
			if f&TCPPsh != 0 {
				m |= classPSH
			}
			if f&TCPRst != 0 {
				m |= classRST
			}
			if f&TCPUrg != 0 {
				m |= classURG
			}
			if f&TCPSyn != 0 {
				m |= ClassSYN
			}
			if f&TCPFin != 0 {
				m |= classFIN
			}
		}
	case KindUDP:
		m |= classUDP
	case KindICMP:
		m |= ClassICMP
	default:
		m |= classOther
	}
	if p.IP.Dst.IsMulticast() {
		m |= classMcast
	}
	return m
}
