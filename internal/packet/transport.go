package packet

import (
	"encoding/binary"
	"fmt"
)

// TCP flag bits, in wire order.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
	TCPUrg = 1 << 5
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCPHeader is a decoded TCP header. A 40-byte trace snapshot carries
// exactly the base header with no options for a 20-byte IP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// decodeTCP parses a TCP header from the front of data.
func decodeTCP(data []byte) (TCPHeader, error) {
	var h TCPHeader
	if len(data) < TCPHeaderLen {
		return h, fmt.Errorf("packet: TCP header truncated: %d bytes", len(data))
	}
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Seq = binary.BigEndian.Uint32(data[4:8])
	h.Ack = binary.BigEndian.Uint32(data[8:12])
	h.DataOffset = data[12] >> 4
	h.Flags = data[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(data[14:16])
	h.Checksum = binary.BigEndian.Uint16(data[16:18])
	h.Urgent = binary.BigEndian.Uint16(data[18:20])
	return h, nil
}

// encode serialises the header into buf (>= TCPHeaderLen bytes)
// without computing a checksum. Returns bytes written.
func (h *TCPHeader) encode(buf []byte) (int, error) {
	if len(buf) < TCPHeaderLen {
		return 0, fmt.Errorf("packet: buffer too small for TCP header")
	}
	if h.DataOffset == 0 {
		h.DataOffset = 5
	}
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], h.Seq)
	binary.BigEndian.PutUint32(buf[8:12], h.Ack)
	buf[12] = h.DataOffset << 4
	buf[13] = h.Flags
	binary.BigEndian.PutUint16(buf[14:16], h.Window)
	binary.BigEndian.PutUint16(buf[16:18], h.Checksum)
	binary.BigEndian.PutUint16(buf[18:20], h.Urgent)
	return TCPHeaderLen, nil
}

// udpHeaderLen is the length of a UDP header.
const udpHeaderLen = 8

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// decodeUDP parses a UDP header from the front of data.
func decodeUDP(data []byte) (UDPHeader, error) {
	var h UDPHeader
	if len(data) < udpHeaderLen {
		return h, fmt.Errorf("packet: UDP header truncated: %d bytes", len(data))
	}
	h.SrcPort = binary.BigEndian.Uint16(data[0:2])
	h.DstPort = binary.BigEndian.Uint16(data[2:4])
	h.Length = binary.BigEndian.Uint16(data[4:6])
	h.Checksum = binary.BigEndian.Uint16(data[6:8])
	return h, nil
}

// encode serialises the header into buf (>= UDPHeaderLen bytes)
// without computing a checksum. Returns bytes written.
func (h *UDPHeader) encode(buf []byte) (int, error) {
	if len(buf) < udpHeaderLen {
		return 0, fmt.Errorf("packet: buffer too small for UDP header")
	}
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], h.Length)
	binary.BigEndian.PutUint16(buf[6:8], h.Checksum)
	return udpHeaderLen, nil
}

// ICMP message types used by the simulator and the analysis.
const (
	ICMPEchoReply    = 0
	ICMPUnreachable  = 3
	ICMPEchoRequest  = 8
	ICMPTimeExceeded = 11
)

// ICMPHeaderLen is the length of the fixed ICMP header.
const ICMPHeaderLen = 8

// ICMPHeader is a decoded ICMP header (fixed part).
type ICMPHeader struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	// Rest carries the type-specific second word: identifier/sequence
	// for echo, unused for time-exceeded.
	Rest uint32
}

// decodeICMP parses an ICMP header from the front of data.
func decodeICMP(data []byte) (ICMPHeader, error) {
	var h ICMPHeader
	if len(data) < ICMPHeaderLen {
		return h, fmt.Errorf("packet: ICMP header truncated: %d bytes", len(data))
	}
	h.Type = data[0]
	h.Code = data[1]
	h.Checksum = binary.BigEndian.Uint16(data[2:4])
	h.Rest = binary.BigEndian.Uint32(data[4:8])
	return h, nil
}

// encode serialises the header into buf (>= ICMPHeaderLen bytes)
// without computing a checksum. Returns bytes written.
func (h *ICMPHeader) encode(buf []byte) (int, error) {
	if len(buf) < ICMPHeaderLen {
		return 0, fmt.Errorf("packet: buffer too small for ICMP header")
	}
	buf[0] = h.Type
	buf[1] = h.Code
	buf[2], buf[3] = 0, 0
	binary.BigEndian.PutUint32(buf[4:8], h.Rest)
	return ICMPHeaderLen, nil
}
