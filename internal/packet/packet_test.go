package packet

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

// headerChecksumOK is the receiver's check on the IPv4 header h decoded
// from data: the header's bytes, stored checksum included, sum to zero.
func headerChecksumOK(h *IPv4Header, data []byte) bool {
	n := h.headerLen()
	return len(data) >= n && Checksum(data[:n], 0) == 0
}

func TestChecksumRFC1071(t *testing.T) {
	// Worked example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd-length buffer is padded with a virtual zero byte.
	odd := Checksum([]byte{0x12, 0x34, 0x56}, 0)
	padded := Checksum([]byte{0x12, 0x34, 0x56, 0x00}, 0)
	if odd != padded {
		t.Errorf("odd-length checksum %#04x != zero-padded %#04x", odd, padded)
	}
}

func TestChecksumZeroTailInvariant(t *testing.T) {
	// Appending zero bytes never changes the checksum — the property
	// the seed-based payload serialization relies on.
	base := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	want := Checksum(base, 0)
	withTail := append(append([]byte{}, base...), make([]byte, 100)...)
	if got := Checksum(withTail, 0); got != want {
		t.Errorf("zero tail changed checksum: %#04x != %#04x", got, want)
	}
}

func TestAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.1.2.3", "255.255.255.255", "192.0.2.1"} {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

// TestAddrStringMatchesFmt: every octet value in every position formats
// as fmt's dotted quad did.
func TestAddrStringMatchesFmt(t *testing.T) {
	for pos := range 4 {
		for v := range 256 {
			a := Addr{1, 22, 203, 4}
			a[pos] = byte(v)
			if got, want := a.String(), fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]); got != want {
				t.Fatalf("Addr%v.String() = %q, want %q", [4]byte(a), got, want)
			}
		}
	}
}

var sink string

// TestAddrStringAllocationBudget: the string is the one allocation.
func TestAddrStringAllocationBudget(t *testing.T) {
	a := AddrFrom(255, 255, 255, 255)
	if n := testing.AllocsPerRun(100, func() { sink = a.String() }); n > 1 {
		t.Errorf("Addr.String allocates %v times, budget 1", n)
	}
}

func TestAddrParseErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1..2.3", "a.b.c.d", "1.2.3.4 "} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrMulticast(t *testing.T) {
	if !MustParseAddr("224.0.0.1").IsMulticast() {
		t.Error("224.0.0.1 should be multicast")
	}
	if !MustParseAddr("239.255.255.255").IsMulticast() {
		t.Error("239.255.255.255 should be multicast")
	}
	if MustParseAddr("223.255.255.255").IsMulticast() {
		t.Error("223.255.255.255 should not be multicast")
	}
	if MustParseAddr("240.0.0.1").IsMulticast() {
		t.Error("240.0.0.1 should not be multicast")
	}
}

func TestIPv4EncodeDecodeRoundTrip(t *testing.T) {
	h := IPv4Header{
		Version: 4, IHL: 5, TOS: 0x10, TotalLength: 1500,
		ID: 0xbeef, Flags: FlagDF, FragOffset: 0,
		TTL: 61, Protocol: ProtoTCP,
		Src: MustParseAddr("10.1.2.3"), Dst: MustParseAddr("192.0.2.200"),
	}
	var buf [20]byte
	n, err := h.encode(buf[:])
	if err != nil || n != 20 {
		t.Fatalf("Encode: n=%d err=%v", n, err)
	}
	got, err := DecodeIPv4(buf[:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if !headerChecksumOK(&got, buf[:]) {
		t.Error("header checksum does not verify")
	}
	// Corrupt a byte: checksum must fail.
	buf[9] ^= 0xff
	if c, _ := DecodeIPv4(buf[:]); headerChecksumOK(&c, buf[:]) {
		t.Error("corrupted header still verifies")
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	if _, err := DecodeIPv4(make([]byte, 19)); err == nil {
		t.Error("truncated header decoded")
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if _, err := DecodeIPv4(bad); err == nil {
		t.Error("IPv6 version accepted")
	}
	bad[0] = 0x43 // IHL 3 < 5
	if _, err := DecodeIPv4(bad); err == nil {
		t.Error("IHL 3 accepted")
	}
	opt := make([]byte, 20)
	opt[0] = 0x46 // IHL 6 => 24 bytes needed
	if _, err := DecodeIPv4(opt); err == nil {
		t.Error("truncated options accepted")
	}
}

func TestIPv4FragmentFields(t *testing.T) {
	h := IPv4Header{Version: 4, IHL: 5, Flags: flagMF, FragOffset: 0x1234 & 0x1fff, TTL: 1, Protocol: ProtoUDP}
	var buf [20]byte
	if _, err := h.encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIPv4(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != flagMF || got.FragOffset != h.FragOffset {
		t.Errorf("fragment fields: got flags=%d off=%d", got.Flags, got.FragOffset)
	}
}

func TestTCPEncodeDecodeRoundTrip(t *testing.T) {
	h := TCPHeader{
		SrcPort: 443, DstPort: 51515, Seq: 0xdeadbeef, Ack: 0x01020304,
		DataOffset: 5, Flags: TCPSyn | TCPAck, Window: 8192, Checksum: 0xabcd, Urgent: 7,
	}
	var buf [20]byte
	if _, err := h.encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	got, err := decodeTCP(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if _, err := decodeTCP(buf[:19]); err == nil {
		t.Error("truncated TCP header decoded")
	}
}

func TestUDPEncodeDecodeRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 53, DstPort: 33434, Length: 80, Checksum: 0x1111}
	var buf [8]byte
	if _, err := h.encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	got, err := decodeUDP(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip mismatch: got %+v want %+v", got, h)
	}
}

func TestICMPEncodeDecodeRoundTrip(t *testing.T) {
	h := ICMPHeader{Type: ICMPTimeExceeded, Code: 0, Rest: 0xfeedface}
	var buf [8]byte
	if _, err := h.encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(buf[2:4], Checksum(buf[:], 0)) // as Serialize does
	got, err := decodeICMP(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != h.Type || got.Code != h.Code || got.Rest != h.Rest {
		t.Errorf("round trip mismatch: got %+v want %+v", got, h)
	}
	if got.Checksum == 0 {
		t.Error("checksum not stored")
	}
}

// mk returns a TCP packet with the given identity fields.
func mk(id uint16, ttl uint8, seed uint64) Packet {
	return Packet{
		IP: IPv4Header{
			Version: 4, IHL: 5, TTL: ttl, Protocol: ProtoTCP,
			Src: MustParseAddr("10.9.8.7"), Dst: MustParseAddr("198.51.100.4"), ID: id,
		},
		Kind: KindTCP,
		TCP: TCPHeader{
			SrcPort: 1234, DstPort: 80, Seq: 99, Flags: TCPAck,
			DataOffset: 5, Window: 1024,
		},
		HasTransport: true,
		PayloadLen:   256,
		PayloadSeed:  seed,
	}
}

func TestPacketSerializeDecodeRoundTrip(t *testing.T) {
	p := mk(42, 61, 0x1122334455667788)
	buf := make([]byte, p.WireLen())
	n, err := p.Serialize(buf, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if n != p.WireLen() {
		t.Fatalf("serialized %d bytes, want %d", n, p.WireLen())
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.IP.Src != p.IP.Src || got.IP.Dst != p.IP.Dst || got.IP.ID != p.IP.ID ||
		got.IP.TTL != p.IP.TTL || got.Kind != KindTCP || !got.HasTransport {
		t.Errorf("decode mismatch: %+v", got)
	}
	if got.PayloadLen != p.PayloadLen {
		t.Errorf("payload length %d, want %d", got.PayloadLen, p.PayloadLen)
	}
	if !headerChecksumOK(&got.IP, buf) {
		t.Error("IP checksum does not verify")
	}
}

func TestPacketTruncatedSnapshotKeepsChecksums(t *testing.T) {
	// The 40-byte snapshot must carry the same transport checksum the
	// full packet would have — that is what lets the detector treat
	// the checksum as payload identity.
	p1 := mk(42, 61, 7)
	full := make([]byte, p1.WireLen())
	if _, err := p1.Serialize(full, len(full)); err != nil {
		t.Fatal(err)
	}
	p2 := mk(42, 61, 7)
	snap := make([]byte, 40)
	n, err := p2.Serialize(snap, 40)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("snapshot %d bytes, want 40", n)
	}
	for i := 0; i < 40; i++ {
		if full[i] != snap[i] {
			t.Fatalf("byte %d differs between full packet and snapshot", i)
		}
	}
}

func TestPacketChecksumReflectsSeed(t *testing.T) {
	// Distinct payload seeds must produce distinct transport
	// checksums (almost surely) — the payload-identity signal.
	a, b := mk(1, 64, 100), mk(1, 64, 101)
	ba := make([]byte, 40)
	bb := make([]byte, 40)
	if _, err := a.Serialize(ba, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Serialize(bb, 40); err != nil {
		t.Fatal(err)
	}
	if a.TCP.Checksum == b.TCP.Checksum {
		t.Errorf("different seeds gave identical checksums %#04x", a.TCP.Checksum)
	}
}

func TestPacketTTLIndependentChecksum(t *testing.T) {
	// Replicas differ only in TTL and IP checksum: serialize the same
	// packet at two TTLs and compare everything else.
	a, b := mk(9, 64, 55), mk(9, 60, 55)
	ba := make([]byte, 40)
	bb := make([]byte, 40)
	if _, err := a.Serialize(ba, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Serialize(bb, 40); err != nil {
		t.Fatal(err)
	}
	for i := range ba {
		same := ba[i] == bb[i]
		switch {
		case i == 8 || i == 10 || i == 11: // TTL, IP checksum
			// allowed to differ
		case !same:
			t.Errorf("byte %d differs between TTL replicas", i)
		}
	}
	if a.TCP.Checksum != b.TCP.Checksum {
		t.Error("TCP checksum depends on TTL")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		pkt  Packet
		want ClassMask
	}{
		{"syn-ack", Packet{Kind: KindTCP, HasTransport: true,
			TCP: TCPHeader{Flags: TCPSyn | TCPAck}},
			classTCP | ClassSYN | classACK},
		{"fin-ack-psh", Packet{Kind: KindTCP, HasTransport: true,
			TCP: TCPHeader{Flags: TCPFin | TCPAck | TCPPsh}},
			classTCP | classFIN | classACK | classPSH},
		{"rst", Packet{Kind: KindTCP, HasTransport: true,
			TCP: TCPHeader{Flags: TCPRst}},
			classTCP | classRST},
		{"urg", Packet{Kind: KindTCP, HasTransport: true,
			TCP: TCPHeader{Flags: TCPUrg | TCPAck}},
			classTCP | classURG | classACK},
		{"udp", Packet{Kind: KindUDP, HasTransport: true}, classUDP},
		{"udp-mcast", Packet{Kind: KindUDP, HasTransport: true,
			IP: IPv4Header{Dst: MustParseAddr("224.0.0.5")}},
			classUDP | classMcast},
		{"icmp", Packet{Kind: KindICMP, HasTransport: true}, ClassICMP},
		{"other", Packet{Kind: KindOther}, classOther},
	}
	for _, c := range cases {
		if got := Classify(&c.pkt); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassMaskString(t *testing.T) {
	m := classTCP | ClassSYN | classACK
	if s := m.String(); s != "TCP+ACK+SYN" {
		t.Errorf("String = %q", s)
	}
	if s := ClassMask(0).String(); s != "NONE" {
		t.Errorf("zero mask String = %q", s)
	}
}

func TestClassIndex(t *testing.T) {
	for i := 0; i < numClasses; i++ {
		if got := ClassIndex(1 << i); got != i {
			t.Errorf("ClassIndex(1<<%d) = %d", i, got)
		}
	}
	if ClassIndex(classTCP|classACK) != -1 {
		t.Error("multi-bit mask should map to -1")
	}
}

func TestDecodeTruncatedTransport(t *testing.T) {
	// Only the IP header captured: HasTransport must be false, but
	// decode succeeds.
	p := mk(5, 50, 1)
	buf := make([]byte, 20)
	if _, err := p.Serialize(buf, 20); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasTransport {
		t.Error("transport header claimed present in 20-byte snapshot")
	}
	if got.Kind != KindTCP {
		t.Errorf("kind = %v, want TCP (from protocol field)", got.Kind)
	}
}

// TestSerializeDecodeQuick drives random header fields through a
// serialize/decode cycle.
func TestSerializeDecodeQuick(t *testing.T) {
	f := func(id uint16, ttlRaw uint8, seed uint64, sport, dport uint16, payRaw uint16) bool {
		ttl := ttlRaw%254 + 1
		pay := int(payRaw % 1400)
		p := Packet{
			IP: IPv4Header{
				Version: 4, IHL: 5, TTL: ttl, Protocol: ProtoUDP,
				Src: AddrFromUint32(uint32(id) * 2654435761),
				Dst: AddrFromUint32(uint32(seed)), ID: id,
			},
			Kind:         KindUDP,
			UDP:          UDPHeader{SrcPort: sport, DstPort: dport},
			HasTransport: true,
			PayloadLen:   pay,
			PayloadSeed:  seed,
		}
		buf := make([]byte, p.WireLen())
		if _, err := p.Serialize(buf, len(buf)); err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.IP.ID == id && got.IP.TTL == ttl &&
			got.UDP.SrcPort == sport && got.UDP.DstPort == dport &&
			got.PayloadLen == pay && headerChecksumOK(&got.IP, buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
