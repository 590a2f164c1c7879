package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the packet decoder: it
// must never panic, and whatever decodes must re-serialize to
// something that decodes to the same header fields.
func FuzzDecode(f *testing.F) {
	// Seed with a valid TCP snapshot and some truncations.
	p := mk(7, 63, 1234)
	buf := make([]byte, 40)
	if _, err := p.Serialize(buf, 40); err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add(buf[:20])
	f.Add(buf[:21])
	f.Add([]byte{})
	f.Add([]byte{0x45})
	udp := Packet{
		IP: IPv4Header{Version: 4, IHL: 5, TTL: 1, Protocol: ProtoUDP,
			Src: AddrFrom(1, 2, 3, 4), Dst: AddrFrom(5, 6, 7, 8), ID: 9},
		Kind: KindUDP, UDP: UDPHeader{SrcPort: 53, DstPort: 53},
		HasTransport: true, PayloadLen: 0,
	}
	ubuf := make([]byte, udp.WireLen())
	if _, err := udp.Serialize(ubuf, len(ubuf)); err != nil {
		f.Fatal(err)
	}
	f.Add(ubuf)

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Decode(data)
		if err != nil {
			return
		}
		// A decodable packet classifies and masks without panicking.
		_ = Classify(&pkt)
		_ = pkt.TransportChecksum()
		_ = pkt.SrcPort()
		_ = pkt.DstPort()
		// Header length never exceeds the captured bytes.
		if pkt.IP.HeaderLen() > len(data) {
			t.Fatalf("header length %d > capture %d", pkt.IP.HeaderLen(), len(data))
		}
	})
}

// FuzzSerializeRoundTrip: any in-range header combination must
// serialize and decode back to itself.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint8(64), uint64(42), uint8(6), uint16(800))
	f.Add(uint16(0xffff), uint8(1), uint64(0), uint8(17), uint16(0))
	f.Add(uint16(0), uint8(255), uint64(1<<63), uint8(1), uint16(1400))
	f.Fuzz(func(t *testing.T, id uint16, ttlRaw uint8, seed uint64, protoRaw uint8, payRaw uint16) {
		ttl := ttlRaw%255 + 1
		pay := int(payRaw % 1460)
		p := Packet{
			IP: IPv4Header{
				Version: 4, IHL: 5, TTL: ttl,
				Src: AddrFromUint32(uint32(seed)), Dst: AddrFromUint32(uint32(seed >> 32)),
				ID: id,
			},
			PayloadLen:  pay,
			PayloadSeed: seed,
		}
		switch protoRaw % 4 {
		case 0:
			p.Kind, p.IP.Protocol = KindTCP, ProtoTCP
			p.TCP = TCPHeader{SrcPort: id, DstPort: ^id, DataOffset: 5, Flags: uint8(seed) & 0x3f}
			p.HasTransport = true
		case 1:
			p.Kind, p.IP.Protocol = KindUDP, ProtoUDP
			p.UDP = UDPHeader{SrcPort: id, DstPort: ^id}
			p.HasTransport = true
		case 2:
			p.Kind, p.IP.Protocol = KindICMP, ProtoICMP
			p.ICMP = ICMPHeader{Type: uint8(seed >> 8), Code: uint8(seed >> 16), Rest: uint32(seed)}
			p.HasTransport = true
		default:
			p.Kind, p.IP.Protocol = KindOther, 47
		}
		buf := make([]byte, p.WireLen())
		n, err := p.Serialize(buf, len(buf))
		if err != nil {
			t.Fatalf("serialize: %v", err)
		}
		if n != p.WireLen() {
			t.Fatalf("wrote %d of %d", n, p.WireLen())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode of own output: %v", err)
		}
		if got.IP.ID != id || got.IP.TTL != ttl || got.Kind != p.Kind {
			t.Fatalf("round trip mismatch: %+v", got.IP)
		}
		if !got.IP.VerifyChecksum(buf) {
			t.Fatal("bad IP checksum in own output")
		}
		// Truncated snapshot agrees byte-for-byte with the prefix.
		if len(buf) > 40 {
			p2 := p
			snap := make([]byte, 40)
			if _, err := p2.Serialize(snap, 40); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, buf[:40]) {
				t.Fatal("snapshot diverges from full serialization")
			}
		}
	})
}

// FuzzFrameIPv4MatchesDecode: on any bytes FrameIPv4 accepts exactly
// what DecodeIPv4 accepts, with its header length, and the TTL and
// destination a caller reads from the framed bytes are the decoded ones.
func FuzzFrameIPv4MatchesDecode(f *testing.F) {
	hdr := []byte{0x45, 0, 0, 40, 0, 9, 0, 0, 63, ProtoTCP, 0, 0, 10, 0, 0, 1, 10, 5, 0, 9}
	f.Add(hdr)
	f.Add(hdr[:19])
	f.Add(append([]byte{0x46}, hdr[1:]...))                     // IHL 6, options cut off
	f.Add(append(append([]byte{0x46}, hdr[1:]...), 1, 1, 1, 1)) // IHL 6, options captured
	f.Add(append([]byte{0x44}, hdr[1:]...))                     // IHL 4
	f.Add(append([]byte{0x65}, hdr[1:]...))                     // version 6
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := FrameIPv4(data)
		h, err := DecodeIPv4(data)
		if (n != 0) != (err == nil) {
			t.Fatalf("FrameIPv4 says %d, DecodeIPv4 says %v", n, err)
		}
		if err == nil && (n != h.HeaderLen() || data[8] != h.TTL || Addr(data[16:20]) != h.Dst) {
			t.Fatalf("framed length %d, TTL %d, destination %v; decoded %d, %d, %v",
				n, data[8], Addr(data[16:20]), h.HeaderLen(), h.TTL, h.Dst)
		}
	})
}
