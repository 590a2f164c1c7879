package core

import "loopscope/internal/packet"

// Byte-level helpers shared by the Detector and the NaiveDetector
// reference: what a replica is (maskReplica), how it is keyed (fnv64a)
// and what is remembered of its first observation (summarize).

// decodeDst extracts just the destination address from a snapshot.
func decodeDst(data []byte) (packet.Addr, error) {
	p, err := packet.DecodeIPv4(data)
	if err != nil {
		return packet.Addr{}, err
	}
	return p.Dst, nil
}

// fnv64a hashes b with FNV-1a.
func fnv64a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// maskReplica zeroes the fields allowed to differ between replicas —
// the TTL and the IP header checksum — in a copy of the captured
// bytes. Everything else (the rest of the IP header, the transport
// header including its checksum, any captured payload) must match
// byte-for-byte, which is exactly the paper's replica definition: the
// transport checksum stands in for payload identity on truncated
// snapshots.
func maskReplica(data []byte) []byte {
	m := make([]byte, len(data))
	copy(m, data)
	if len(m) > 8 {
		m[8] = 0 // TTL
	}
	if len(m) > 11 {
		m[10], m[11] = 0, 0 // IP header checksum
	}
	return m
}

func summarize(p *packet.Packet) PacketSummary {
	s := PacketSummary{
		Src:       p.IP.Src,
		Dst:       p.IP.Dst,
		ID:        p.IP.ID,
		Protocol:  p.IP.Protocol,
		SrcPort:   p.SrcPort(),
		DstPort:   p.DstPort(),
		WireLen:   int(p.IP.TotalLength),
		ClassMask: uint16(packet.Classify(p)),
	}
	if p.Kind == packet.KindTCP && p.HasTransport {
		s.TCPFlags = p.TCP.Flags
	}
	if p.Kind == packet.KindICMP && p.HasTransport {
		s.ICMPType = p.ICMP.Type
	}
	return s
}
