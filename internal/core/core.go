// Package core implements the paper's contribution: detection of
// routing loops from single-link packet traces (Hengartner, Moon,
// Mortier, Diot — IMC 2002, §IV).
//
// A packet caught in a forwarding loop that includes the monitored
// link crosses that link once per revolution, each time with its TTL
// lower by the number of routers in the loop. In the trace this shows
// up as a replica stream: a run of records whose captured bytes are
// identical except for the TTL and IP header checksum, with strictly
// decreasing TTL. The algorithm has three steps:
//
//  1. Detect replicas and assemble them into streams.
//  2. Validate streams: discard two-element sets (link-layer
//     duplicates) and require that, while a stream is active, every
//     packet towards the same /24 is itself part of a replica stream
//     — a real loop captures all traffic to the prefix.
//  3. Merge streams caused by the same routing loop: same /24 and
//     overlapping in time, or separated by less than the merge window
//     with no non-looped packet to the subnet in between.
//
// The package holds one implementation of those steps, the Detector: an
// incremental state machine that validates, merges and emits per
// prefix as the trace clock passes each decision's horizon, so it holds
// only the undecided tail of the trace. Collecting what it emits and
// canonicalising at Finish gives the whole-trace Result; taking loops
// from its callback and ending on FinishStats gives bounded-memory
// online detection. ParallelDetector shards a trace over several
// Detectors, Session adds what a resumable daemon needs, and
// NaiveDetector is the independent whole-trace reference the Detector
// is tested against.
package core

import (
	"flag"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// Config tunes the detector. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	// MinReplicas is the smallest stream size reported as loop
	// evidence. The paper discards two-element sets as link-layer
	// duplicates, so the default is 3.
	MinReplicas int
	// MinTTLDelta is the smallest acceptable TTL decrement between
	// successive replicas. A loop involves at least two routers, so
	// the default is 2.
	MinTTLDelta int
	// MemberReplicas is the smallest stream size whose packets count
	// as "looped" for the step-2 validation of other streams. Two-
	// element sets are not loop evidence themselves but their packets
	// must not invalidate a concurrent genuine stream; default 2.
	MemberReplicas int
	// PrefixBits is the aggregation width for validation and merging;
	// /24 is the longest prefix tier-1 ISPs honoured at the time.
	PrefixBits int
	// MaxReplicaGap bounds the spacing between successive replicas of
	// one stream; a stream with no new replica for this long is
	// closed.
	MaxReplicaGap time.Duration
	// MergeWindow is the step-3 gap within which two same-prefix
	// streams are attributed to one routing loop (the paper uses one
	// minute and reports 2 and 5 to be equivalent).
	MergeWindow time.Duration
	// ValidateSubnet enables the step-2 subnet condition. Disabling
	// it is used by the ablation benchmarks.
	ValidateSubnet bool
	// MaxActiveStreams caps the per-packet state a Detector holds —
	// packets seen once plus builders of packets seen again, see
	// Detector.LiveBuilders (0: unlimited; under ParallelDetector the
	// cap applies to each shard). The cap is the detector's overload
	// self-protection: an IPID-collision storm — every packet distinct,
	// none ever growing a replica stream — would otherwise inflate that
	// state without bound. At the cap the detector sheds lowest-value
	// state first, coldest first by the record index of each packet's
	// last observation (packets below MemberReplicas, which cannot be
	// loop evidence yet), and degrades to sampled admission of new
	// packets, counting everything it gave up (see Detector.Shed). Only
	// the loopscoped daemon sets it.
	MaxActiveStreams int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		MinReplicas:    3,
		MinTTLDelta:    2,
		MemberReplicas: 2,
		PrefixBits:     24,
		MaxReplicaGap:  2 * time.Second,
		MergeWindow:    time.Minute,
		ValidateSubnet: true,
	}
}

// BindFlags registers the paper's detector parameters on fs, defaulting
// to DefaultConfig, and returns the Config they describe once fs has been
// parsed. loopdetect and loopscoped both declare them through it, so
// their defaults live in DefaultConfig alone.
func BindFlags(fs *flag.FlagSet) func() Config {
	def := DefaultConfig()
	cfg := def
	fs.IntVar(&cfg.MinReplicas, "min-replicas", def.MinReplicas, "smallest replica set reported as loop evidence")
	fs.IntVar(&cfg.MinTTLDelta, "ttl-delta", def.MinTTLDelta, "smallest acceptable TTL decrement between replicas")
	fs.IntVar(&cfg.PrefixBits, "prefix-bits", def.PrefixBits, "destination aggregation width for validation/merging")
	fs.DurationVar(&cfg.MergeWindow, "merge-window", def.MergeWindow, "gap within which same-prefix streams merge")
	fs.DurationVar(&cfg.MaxReplicaGap, "replica-gap", def.MaxReplicaGap, "max spacing between successive replicas")
	noValidate := fs.Bool("no-validate", !def.ValidateSubnet, "disable the step-2 subnet validation")
	return func() Config {
		cfg.ValidateSubnet = !*noValidate
		return cfg
	}
}

// Replica is one observation of a looping packet crossing the link.
type Replica struct {
	// Time is the capture timestamp.
	Time time.Duration
	// TTL is the observed TTL.
	TTL uint8
	// Index is the record's position in the trace.
	Index int
}

// ReplicaStream is the set of replicas of one original packet.
type ReplicaStream struct {
	// ID numbers validated streams in order of first replica.
	ID int
	// Prefix is the destination /PrefixBits subnet.
	Prefix routing.Prefix
	// Replicas holds the observations in capture order.
	Replicas []Replica
	// Summary is the parsed view of the first replica.
	Summary PacketSummary
	// Ident is FNV-1a over the replica bytes with TTL and IP checksum
	// zeroed: the original packet's identity, equal at every tap that
	// saw it, and the stream ID the flight recorder files it under.
	Ident uint64
}

// PacketSummary carries the header fields the analysis cares about,
// extracted from the first replica.
type PacketSummary struct {
	Src, Dst packet.Addr
	// ID is the IP identification field. The packet's identity across
	// vantage points is ReplicaStream.Ident, which covers every header
	// byte but TTL and checksum.
	ID        uint16
	Protocol  uint8
	SrcPort   uint16
	DstPort   uint16
	TCPFlags  uint8
	ICMPType  uint8
	WireLen   int
	ClassMask uint16
}

// Count returns the number of replicas.
func (s *ReplicaStream) Count() int { return len(s.Replicas) }

// Start returns the time of the first replica.
func (s *ReplicaStream) Start() time.Duration { return s.Replicas[0].Time }

// End returns the time of the last replica.
func (s *ReplicaStream) End() time.Duration {
	return s.Replicas[len(s.Replicas)-1].Time
}

// Duration returns End - Start.
func (s *ReplicaStream) Duration() time.Duration { return s.End() - s.Start() }

// TTLDelta returns the dominant (most common) TTL decrement between
// successive replicas, the smaller on a tie; 0 below two replicas.
func (s *ReplicaStream) TTLDelta() int {
	// A decrement of two uint8 TTLs lies in [-255, 255]. The leader is
	// kept current as the counts grow: a count that passes it, or ties
	// it with a smaller decrement, takes over.
	var counts [511]int32
	best, bestN := 0, int32(0)
	for i := 1; i < len(s.Replicas); i++ {
		d := int(s.Replicas[i-1].TTL) - int(s.Replicas[i].TTL)
		counts[d+255]++
		if n := counts[d+255]; n > bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	return best
}

// MeanSpacing returns the average inter-replica spacing, the paper's
// per-stream spacing statistic (Figure 4). Streams of one replica
// return 0.
func (s *ReplicaStream) MeanSpacing() time.Duration {
	if len(s.Replicas) < 2 {
		return 0
	}
	return s.Duration() / time.Duration(len(s.Replicas)-1)
}

// LastTTL returns the TTL of the final replica.
func (s *ReplicaStream) LastTTL() uint8 {
	return s.Replicas[len(s.Replicas)-1].TTL
}

// Escaped estimates whether the packet left the loop alive: the last
// observed TTL is still larger than one revolution, so the packet
// cannot have expired inside the loop right after this link. (With
// router update logs one could do better; from a single link this is
// the paper's available signal.)
func (s *ReplicaStream) Escaped() bool {
	d := s.TTLDelta()
	return int(s.LastTTL()) > d && d > 0
}

// LoopDelay estimates the extra delay the loop imposed on this packet
// while it was observable from the link: the span between first and
// last replica.
func (s *ReplicaStream) LoopDelay() time.Duration { return s.Duration() }

// Loop is a detected routing loop: one or more merged replica streams
// towards the same subnet.
type Loop struct {
	Prefix     routing.Prefix
	Streams    []*ReplicaStream
	Start, End time.Duration
}

// Duration returns the loop's observable lifetime.
func (l *Loop) Duration() time.Duration { return l.End - l.Start }

// Replicas returns the total number of replica observations across
// the loop's streams.
func (l *Loop) Replicas() int {
	n := 0
	for _, s := range l.Streams {
		n += len(s.Replicas)
	}
	return n
}

// Result is the detector's output for one trace.
type Result struct {
	// Streams are the validated replica streams, ordered by first
	// replica.
	Streams []*ReplicaStream
	// Loops are the merged routing loops, ordered by start.
	Loops []*Loop

	// TotalPackets is the number of trace records processed.
	TotalPackets int
	// LoopedPackets is the number of records that belong to a
	// validated stream (the paper's "looped packets" in Table I).
	LoopedPackets int
	// ParseErrors counts undecodable records.
	ParseErrors int
	// PairsDiscarded counts two-element replica sets discarded as
	// link-layer duplicates (step 2, first condition).
	PairsDiscarded int
	// SubnetInvalidated counts streams discarded because a
	// same-subnet packet was not looping during the stream (step 2,
	// second condition).
	SubnetInvalidated int
}

// Membership maps record index -> validated stream ID, or -1 for
// records outside every validated stream; its length is TotalPackets.
// It is rebuilt from Streams on every call and costs four bytes per
// record of the trace, which is why no Result carries it: a caller that
// wants to know which packets looped usually wants the streams.
func (r *Result) Membership() []int32 {
	m := make([]int32, r.TotalPackets)
	for i := range m {
		m[i] = -1
	}
	for _, s := range r.Streams {
		for _, rep := range s.Replicas {
			m[rep.Index] = int32(s.ID)
		}
	}
	return m
}
