package packet

import (
	"encoding/binary"
	"fmt"
)

// TransportKind identifies the transport protocol of a parsed packet.
type TransportKind uint8

// Transport kinds.
const (
	KindOther TransportKind = iota
	KindTCP
	KindUDP
	KindICMP
)

// String returns the conventional protocol name.
func (k TransportKind) String() string {
	switch k {
	case KindTCP:
		return "TCP"
	case KindUDP:
		return "UDP"
	case KindICMP:
		return "ICMP"
	default:
		return "OTHER"
	}
}

// Packet is a parsed IPv4 packet. It serves two roles:
//
//   - In the simulator it is the unit of forwarding. Payload bytes are
//     never materialised; PayloadLen and PayloadSeed describe them.
//     The seed deterministically defines the payload's first eight
//     bytes (the rest are zero), which is enough to give every
//     distinct packet a distinct transport checksum while keeping a
//     multi-million-packet simulation in memory.
//
//   - On the detector side it is the parsed view of a trace record,
//     possibly truncated to the 40-byte snapshot length; then
//     HasTransport reports whether the transport header was present.
type Packet struct {
	IP   IPv4Header
	Kind TransportKind
	TCP  TCPHeader
	UDP  UDPHeader
	ICMP ICMPHeader
	// HasTransport reports whether the transport header was parsed
	// (false for truncated or unknown-protocol packets).
	HasTransport bool

	// PayloadLen is the transport payload length in bytes.
	PayloadLen int
	// PayloadSeed determines the payload's leading bytes; see above.
	PayloadSeed uint64
}

// transportHeaderLen returns the wire length of the packet's transport
// header.
func (p *Packet) transportHeaderLen() int {
	switch p.Kind {
	case KindTCP:
		return int(p.TCP.DataOffset) * 4
	case KindUDP:
		return udpHeaderLen
	case KindICMP:
		return ICMPHeaderLen
	default:
		return 0
	}
}

// WireLen returns the total on-the-wire length of the packet
// (IP header + transport header + payload).
func (p *Packet) WireLen() int {
	return p.IP.headerLen() + p.transportHeaderLen() + p.PayloadLen
}

// Decode parses an IPv4 packet from data, which may be a truncated
// snapshot. The IP header must be complete; the transport header is
// parsed when enough bytes are present, otherwise HasTransport is
// false. PayloadLen is derived from the IP total length, not from the
// captured bytes.
func Decode(data []byte) (Packet, error) {
	var p Packet
	ip, err := DecodeIPv4(data)
	if err != nil {
		return p, err
	}
	p.IP = ip
	rest := data[ip.headerLen():]
	switch ip.Protocol {
	case ProtoTCP:
		p.Kind = KindTCP
		if tcp, err := decodeTCP(rest); err == nil {
			p.TCP = tcp
			p.HasTransport = true
		}
	case ProtoUDP:
		p.Kind = KindUDP
		if udp, err := decodeUDP(rest); err == nil {
			p.UDP = udp
			p.HasTransport = true
		}
	case ProtoICMP:
		p.Kind = KindICMP
		if icmp, err := decodeICMP(rest); err == nil {
			p.ICMP = icmp
			p.HasTransport = true
		}
	default:
		p.Kind = KindOther
	}
	if p.HasTransport {
		p.PayloadLen = int(ip.TotalLength) - ip.headerLen() - p.transportHeaderLen()
		if p.PayloadLen < 0 {
			p.PayloadLen = 0
		}
	} else {
		p.PayloadLen = int(ip.TotalLength) - ip.headerLen()
		if p.PayloadLen < 0 {
			p.PayloadLen = 0
		}
	}
	return p, nil
}

// Serialize writes the packet's wire representation into buf and
// returns the number of bytes written, at most max bytes (pass
// WireLen() or larger for the full packet). The payload is rendered
// as the eight seed bytes followed by zeros. Checksums (IP header and
// transport) are computed over the full logical packet so a truncated
// snapshot still carries the checksums the full packet would have —
// exactly what a capture card records.
func (p *Packet) Serialize(buf []byte, max int) (int, error) {
	full := p.WireLen()
	if max > full {
		max = full
	}
	if len(buf) < max {
		return 0, fmt.Errorf("packet: buffer too small: %d < %d", len(buf), max)
	}
	// Assemble the full header block in a scratch area: IP header +
	// transport header + up to 8 seed bytes. The zero payload tail
	// contributes nothing to internet checksums, so checksums over
	// this block (with the right pseudo-header lengths) equal the
	// full-packet checksums.
	var scratch [IPv4HeaderLen + 60 + 8]byte
	p.IP.TotalLength = uint16(full)
	ipLen, err := p.IP.encode(scratch[:])
	if err != nil {
		return 0, err
	}
	seedLen := p.PayloadLen
	if seedLen > 8 {
		seedLen = 8
	}
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], p.PayloadSeed)

	thl := 0
	switch p.Kind {
	case KindTCP:
		thl, err = p.TCP.encode(scratch[ipLen:])
		if err != nil {
			return 0, err
		}
		copy(scratch[ipLen+thl:], seed[:seedLen])
		seg := scratch[ipLen : ipLen+thl+seedLen]
		// Zero the checksum field, then compute over the logical
		// full-length segment.
		seg[16], seg[17] = 0, 0
		sum := pseudoHeaderSum(p.IP.Src, p.IP.Dst, ProtoTCP, uint16(thl+p.PayloadLen))
		ck := Checksum(seg, sum)
		binary.BigEndian.PutUint16(seg[16:18], ck)
		p.TCP.Checksum = ck
	case KindUDP:
		p.UDP.Length = uint16(udpHeaderLen + p.PayloadLen)
		thl, err = p.UDP.encode(scratch[ipLen:])
		if err != nil {
			return 0, err
		}
		copy(scratch[ipLen+thl:], seed[:seedLen])
		seg := scratch[ipLen : ipLen+thl+seedLen]
		seg[6], seg[7] = 0, 0
		sum := pseudoHeaderSum(p.IP.Src, p.IP.Dst, ProtoUDP, uint16(thl+p.PayloadLen))
		ck := Checksum(seg, sum)
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(seg[6:8], ck)
		p.UDP.Checksum = ck
	case KindICMP:
		thl, err = p.ICMP.encode(scratch[ipLen:])
		if err != nil {
			return 0, err
		}
		copy(scratch[ipLen+thl:], seed[:seedLen])
		seg := scratch[ipLen : ipLen+thl+seedLen]
		seg[2], seg[3] = 0, 0
		ck := Checksum(seg, 0)
		binary.BigEndian.PutUint16(seg[2:4], ck)
		p.ICMP.Checksum = ck
	}
	head := ipLen + thl + seedLen
	if head > max {
		head = max
	}
	n := copy(buf, scratch[:head])
	// Zero-fill any remaining requested bytes (payload tail).
	for n < max {
		buf[n] = 0
		n++
	}
	return n, nil
}

// SrcPort returns the transport source port, or 0 when not applicable.
func (p *Packet) SrcPort() uint16 {
	switch p.Kind {
	case KindTCP:
		return p.TCP.SrcPort
	case KindUDP:
		return p.UDP.SrcPort
	default:
		return 0
	}
}

// DstPort returns the transport destination port, or 0 when not
// applicable.
func (p *Packet) DstPort() uint16 {
	switch p.Kind {
	case KindTCP:
		return p.TCP.DstPort
	case KindUDP:
		return p.UDP.DstPort
	default:
		return 0
	}
}
