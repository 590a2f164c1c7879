package core

import (
	"encoding/binary"
	"math/bits"

	"loopscope/internal/packet"
)

// Byte-level helpers: what a replica is (maskReplica, the definition
// the naive oracle applies directly), the same definition as a
// fixed-size comparable value (replicaKey, what the Detector indexes
// by), the flight recorder's stream ID (fnv64a) and what is remembered
// of a stream's first observation (summarize).

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

// keyBytes is how much of a capture a replicaKey holds verbatim: the
// paper's 40-byte snapshot, an IPv4 header plus a TCP header.
const keyBytes = 40

// replicaKey is maskReplica as a value: two captures that decode as
// IPv4 have equal masked bytes exactly when their keys are equal and
// their bytes past keyBytes are (FuzzReplicaKey). For the paper's
// snapshots the key is therefore the whole definition; a longer
// capture adds a hash of the rest, which only spreads the index — the
// builder keeps those bytes and a match compares them.
type replicaKey struct {
	// head is the first keyBytes captured bytes, zero-padded, as
	// little-endian words with TTL and IP checksum zeroed.
	head [keyBytes / 8]uint64
	// n is the captured length, which tells padding from captured
	// zeros.
	n int
	// restHash is fnv64a of the bytes past keyBytes.
	restHash uint64
}

// keyOf splits a capture DecodeIPv4 accepted (so at least 20 bytes: TTL
// and checksum are there to mask) into its key and the bytes past
// keyBytes, which alias data and are empty for the paper's snapshots.
func keyOf(data []byte) (k replicaKey, rest []byte) {
	var head [keyBytes]byte
	rest = data[copy(head[:], data):]
	for i := range k.head {
		k.head[i] = binary.LittleEndian.Uint64(head[8*i:])
	}
	k.head[1] &^= 0xffff00ff // bytes 8 (TTL), 10 and 11 (IP checksum)
	k.n, k.restHash = len(data), fnv64a(rest)
	return k, rest
}

// masked appends maskReplica's bytes, rebuilt from the two halves keyOf
// made, to dst.
func (k *replicaKey) masked(dst, rest []byte) []byte {
	var head [keyBytes]byte
	for i, w := range k.head {
		binary.LittleEndian.PutUint64(head[8*i:], w)
	}
	return append(append(dst, head[:k.n-len(rest)]...), rest...)
}

// index mixes the key into the word the Detector's map is keyed by
// (see Detector.active for why the map does not hold the key itself).
// seed is drawn per detector, so which keys collide is not something
// the sender of the packets can arrange; a collision costs a step along
// a chain and decides nothing.
func (k *replicaKey) index(seed uint64) uint64 {
	// Multiply-fold two words at a time (wyhash's mixing step); the
	// constants are arbitrary odd bit patterns.
	fold := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		return hi ^ lo
	}
	return fold(
		fold(k.head[0]^seed, k.head[1]^0xa0761d6478bd642f)^
			fold(k.head[2]^seed, k.head[3]^0xe7037ed1a0b428db)^
			fold(k.head[4]^seed, k.restHash^0x8ebc6af09c88c6e3),
		uint64(k.n)^0x589965cc75374cc3)
}

// summarize extracts the header fields analysis reads from a stream's
// packet. None of them is the TTL or the IP checksum, so the masked
// bytes serve as well as any one replica's.
func summarize(data []byte) PacketSummary {
	p, err := packet.Decode(data)
	if err != nil {
		panic("core: summarize: " + err.Error()) // the bytes passed DecodeIPv4 when first observed
	}
	s := PacketSummary{
		Src:       p.IP.Src,
		Dst:       p.IP.Dst,
		ID:        p.IP.ID,
		Protocol:  p.IP.Protocol,
		SrcPort:   p.SrcPort(),
		DstPort:   p.DstPort(),
		WireLen:   int(p.IP.TotalLength),
		ClassMask: uint16(packet.Classify(&p)),
	}
	if p.Kind == packet.KindTCP && p.HasTransport {
		s.TCPFlags = p.TCP.Flags
	}
	if p.Kind == packet.KindICMP && p.HasTransport {
		s.ICMPType = p.ICMP.Type
	}
	return s
}
