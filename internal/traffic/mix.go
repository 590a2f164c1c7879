// Package traffic generates the synthetic backbone workload the
// reproduction uses in place of the paper's proprietary Sprint traces:
// closed-loop TCP flows (SYN handshakes that stall when packets die in
// a loop, exactly the effect behind the SYN over-representation in
// Figure 6), open-loop UDP streams, ICMP echo traffic, a sprinkle of
// multicast, and the realistic header details the detector keys on —
// per-host IP-ID counters, OS-dependent initial TTLs, and trimodal
// packet sizes.
package traffic

import "time"

// TTLWeight is one initial-TTL choice with its relative weight.
type TTLWeight struct {
	TTL    uint8
	Weight float64
}

// sizeWeight is one packet-size choice with its relative weight.
type sizeWeight struct {
	// Payload is the transport payload length in bytes.
	Payload int
	Weight  float64
}

// Mix describes the composition of the generated traffic.
type Mix struct {
	// Protocol fractions; they should sum to at most 1, the remainder
	// becomes "other" protocol packets.
	TCPFrac   float64
	UDPFrac   float64
	ICMPFrac  float64
	McastFrac float64

	// AckStreamFrac is the fraction of TCP flows that are pure
	// ACK-return streams (the data flows the opposite direction, so
	// this link sees 40-byte ACKs).
	AckStreamFrac float64

	// InitialTTLs is the OS-driven initial TTL distribution. The
	// paper observes 64 (Linux) and 128 (Windows 2000) dominating.
	InitialTTLs []TTLWeight

	// DataSizes is the payload-size distribution of TCP data packets.
	DataSizes []sizeWeight
	// UDPSizes is the payload-size distribution of UDP packets.
	UDPSizes []sizeWeight

	// FlowPackets is the Pareto shape/bounds for TCP flow lengths in
	// packets.
	FlowPacketsAlpha float64
	FlowPacketsMin   float64
	FlowPacketsMax   float64
	// PacketGap is the mean in-flow inter-packet gap.
	PacketGap time.Duration

	// SYNRetries is how many times a flow retransmits an unanswered
	// SYN before giving up; RetryTimeout is the first retry interval
	// (doubled each attempt).
	SYNRetries   int
	RetryTimeout time.Duration
	// DataRetries bounds in-flow retransmissions before the flow
	// aborts.
	DataRetries int
	// RSTCloseFrac is the fraction of flows that end with a RST
	// instead of a FIN (impatient clients, aborted transfers).
	RSTCloseFrac float64

	// UDPStreamPackets is the mean length of a UDP stream (media and
	// DNS bursts come from one host, not from memoryless senders);
	// UDPStreamGap is the in-stream packet spacing.
	UDPStreamPackets float64
	UDPStreamGap     time.Duration
}

// DefaultMix matches the link composition in the paper's Figure 5:
// TCP over 80%, UDP 5–15%, small ICMP and multicast fractions; SYN
// and FIN each under a few percent of packets (they emerge from flow
// structure rather than being drawn directly).
func DefaultMix() Mix {
	return Mix{
		TCPFrac:       0.86,
		UDPFrac:       0.10,
		ICMPFrac:      0.025,
		McastFrac:     0.005,
		AckStreamFrac: 0.35,
		InitialTTLs: []TTLWeight{
			{TTL: 64, Weight: 0.50},  // Linux / *BSD
			{TTL: 128, Weight: 0.40}, // Windows 2000
			{TTL: 255, Weight: 0.10}, // Solaris and friends
		},
		DataSizes: []sizeWeight{
			{Payload: 0, Weight: 0.15},    // pure ACK inside data flows
			{Payload: 536, Weight: 0.25},  // old default MSS
			{Payload: 1460, Weight: 0.60}, // ethernet MSS
		},
		UDPSizes: []sizeWeight{
			{Payload: 32, Weight: 0.40},  // DNS-ish
			{Payload: 160, Weight: 0.35}, // media
			{Payload: 1024, Weight: 0.25},
		},
		FlowPacketsAlpha: 1.05,
		FlowPacketsMin:   4,
		FlowPacketsMax:   800,
		PacketGap:        15 * time.Millisecond,
		SYNRetries:       3,
		RetryTimeout:     3 * time.Second,
		DataRetries:      4,
		RSTCloseFrac:     0.05,
		UDPStreamPackets: 16,
		UDPStreamGap:     20 * time.Millisecond,
	}
}
