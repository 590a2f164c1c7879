package packet

import (
	"encoding/binary"
	"fmt"
)

// IP protocol numbers for the transport protocols the analysis cares
// about.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options. The
// traces in the paper carry no options, and the simulator never
// generates them, but the decoder honours IHL anyway.
const IPv4HeaderLen = 20

// IPv4Header is a decoded IPv4 header.
type IPv4Header struct {
	Version     uint8
	IHL         uint8 // header length in 32-bit words
	TOS         uint8
	TotalLength uint16
	ID          uint16
	Flags       uint8 // 3 bits: reserved, DF, MF
	FragOffset  uint16
	TTL         uint8
	Protocol    uint8
	Checksum    uint16
	Src, Dst    Addr
}

// IPv4 flag bits.
const (
	FlagDF = 0x2 // don't fragment
	flagMF = 0x1 // more fragments
)

// headerLen returns the header length in bytes implied by IHL.
func (h *IPv4Header) headerLen() int { return int(h.IHL) * 4 }

// FrameIPv4 makes DecodeIPv4's checks on the front of data — at least
// 20 bytes, version 4, IHL at least 5 and the whole header captured —
// without decoding it, and returns the header length in bytes, or 0
// where DecodeIPv4 fails. It is small enough to inline.
func FrameIPv4(data []byte) int {
	if len(data) < IPv4HeaderLen || data[0]>>4 != 4 {
		return 0
	}
	if n := int(data[0]&0x0f) * 4; n >= IPv4HeaderLen && n <= len(data) {
		return n
	}
	return 0
}

// DecodeIPv4 parses an IPv4 header from the front of data.
func DecodeIPv4(data []byte) (IPv4Header, error) {
	var h IPv4Header
	if len(data) < IPv4HeaderLen {
		return h, fmt.Errorf("packet: IPv4 header truncated: %d bytes", len(data))
	}
	h.Version = data[0] >> 4
	if h.Version != 4 {
		return h, fmt.Errorf("packet: not IPv4 (version %d)", h.Version)
	}
	h.IHL = data[0] & 0x0f
	if h.IHL < 5 {
		return h, fmt.Errorf("packet: bad IHL %d", h.IHL)
	}
	if len(data) < h.headerLen() {
		return h, fmt.Errorf("packet: IPv4 options truncated")
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:4])
	h.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	return h, nil
}

// encode serialises the header into buf, which must be at least
// HeaderLen() bytes, and writes a freshly computed header checksum
// both into buf and into h.Checksum. It returns the number of bytes
// written.
func (h *IPv4Header) encode(buf []byte) (int, error) {
	if h.IHL == 0 {
		h.IHL = 5
	}
	n := h.headerLen()
	if len(buf) < n {
		return 0, fmt.Errorf("packet: buffer too small for IPv4 header: %d < %d", len(buf), n)
	}
	if h.Version == 0 {
		h.Version = 4
	}
	buf[0] = h.Version<<4 | h.IHL
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], h.TotalLength)
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	buf[10], buf[11] = 0, 0
	copy(buf[12:16], h.Src[:])
	copy(buf[16:20], h.Dst[:])
	for i := IPv4HeaderLen; i < n; i++ {
		buf[i] = 0
	}
	h.Checksum = Checksum(buf[:n], 0)
	binary.BigEndian.PutUint16(buf[10:12], h.Checksum)
	return n, nil
}
