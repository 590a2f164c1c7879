// Package analysis turns detector output into the paper's tables and
// figures: Table I/II summaries, the TTL-delta distribution (Fig. 2),
// the CDFs of replica count, inter-replica spacing, stream duration
// and loop duration (Figs. 3, 4, 8, 9), the traffic-type mixes for all
// and for looped traffic (Figs. 5, 6), the destination time series
// (Fig. 7), and the §VI escape estimate. It reads traces only: the
// simulator's ground truth for §VI loss and delay lives in
// internal/scenario.
package analysis

import (
	"time"

	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// numClasses is the number of traffic-type categories (Figure 5's
// x-axis).
const numClasses = 11

// destPoint is one Figure-7 sample: a replica stream's start time and
// destination address.
type destPoint struct {
	Time time.Duration
	Dst  packet.Addr
}

// Report holds every per-trace statistic the paper plots.
type Report struct {
	// Identification (Table I).
	Link         string
	Duration     time.Duration
	TotalPackets int
	// AvgBandwidthMbps is the mean offered load over the trace in
	// megabits per second.
	AvgBandwidthMbps float64
	LoopedPackets    int

	// Step outputs (Table II).
	ReplicaStreams int
	RoutingLoops   int

	// Figure 2: fraction of replica streams per TTL delta.
	TTLDelta *stats.IntHist
	// Figure 3: CDF of replicas per stream.
	ReplicasPerStream *stats.CDF
	// Figure 4: CDF of mean inter-replica spacing (milliseconds).
	SpacingMs *stats.CDF
	// Figure 5: per-class fraction of all packets. A packet can be in
	// several classes, so fractions do not sum to 1.
	AllClassFrac [numClasses]float64
	// Figure 6: per-class fraction of looped packets.
	LoopedClassFrac [numClasses]float64
	// Figure 7: destination addresses of replica streams over time.
	DestSeries []destPoint
	// Figure 8: CDF of replica-stream duration (milliseconds).
	StreamDurationMs *stats.CDF
	// Figure 9: CDF of merged routing-loop duration (seconds).
	LoopDurationSec *stats.CDF

	// ICMPTypes tallies ICMP message types over all traffic — the
	// lens through which the paper spotted the host emitting messages
	// with reserved type fields on Backbones 1 and 2 (§V-B).
	ICMPTypes *stats.IntHist

	// §VI delay impact, estimated from the trace alone.
	EscapedStreams int
	// EscapeDelayMs is the CDF of observable extra delay (stream
	// span) of escaped streams, in milliseconds.
	EscapeDelayMs *stats.CDF
}

// Accumulator folds a trace into the per-record half of a Report as the
// records go by — wire volume, first and last timestamp, the ICMP-type
// tally and the all-traffic class counts — so a caller that feeds it
// from the same loop that feeds the detector keeps no record. Finish
// adds the half that comes from the detection result.
type Accumulator struct {
	link        string
	records     int
	first, last time.Duration
	wireBytes   uint64
	// tally counts records by the header bits packet.Classify reads (see
	// tallyCells); icmpTypes by ICMP type where the header was captured.
	tally     [2 * tallyCells]int
	icmpTypes [256]int
}

// A tally cell is the protocol, or 256 plus the TCP flags where the TCP
// header was captured, plus tallyCells for a multicast destination.
const tallyCells = 256 + 64

// NewAccumulator returns an empty accumulator for a trace described by
// meta.
func NewAccumulator(meta trace.Meta) *Accumulator {
	return &Accumulator{link: meta.Link}
}

// Add accounts for the next record of the trace.
func (a *Accumulator) Add(rec trace.Record) {
	if a.records == 0 {
		a.first = rec.Time
	}
	a.records++
	a.last = rec.Time
	a.wireBytes += uint64(rec.WireLen)
	// DecodeIPv4's checks, then only what Classify and the ICMP tally read.
	d, n := rec.Data, packet.FrameIPv4(rec.Data)
	if n == 0 {
		return
	}
	cell, l4 := int(d[9]), d[n:]
	switch {
	case cell == packet.ProtoTCP && len(l4) >= packet.TCPHeaderLen:
		cell = 256 + int(l4[13]&0x3f)
	case cell == packet.ProtoICMP && len(l4) >= packet.ICMPHeaderLen:
		a.icmpTypes[l4[0]]++
	}
	if packet.AddrFrom(d[16], 0, 0, 0).IsMulticast() {
		cell += tallyCells
	}
	a.tally[cell]++
}

// cellPacket decodes the shortest header bytes that land in cell, so
// that the classes of a cell are whatever packet.Classify makes of it.
func cellPacket(cell int) packet.Packet {
	b, n := [packet.IPv4HeaderLen + packet.TCPHeaderLen]byte{0: 0x45}, packet.IPv4HeaderLen
	if cell >= tallyCells {
		b[16], cell = 0xe0, cell-tallyCells
	}
	if b[9] = byte(cell); cell >= 256 {
		b[9], b[n+13], n = packet.ProtoTCP, byte(cell-256), len(b)
	}
	p, _ := packet.Decode(b[:n])
	return p
}

// Finish computes the Report of the records added and of res, the
// result of detection over the same records. The accumulator must not
// be used afterwards.
func (a *Accumulator) Finish(res *core.Result) *Report {
	r := &Report{
		Link:              a.link,
		Duration:          a.last - a.first,
		TotalPackets:      res.TotalPackets,
		LoopedPackets:     res.LoopedPackets,
		ReplicaStreams:    len(res.Streams),
		RoutingLoops:      len(res.Loops),
		TTLDelta:          &stats.IntHist{},
		ICMPTypes:         &stats.IntHist{},
		ReplicasPerStream: &stats.CDF{},
		SpacingMs:         &stats.CDF{},
		StreamDurationMs:  &stats.CDF{},
		LoopDurationSec:   &stats.CDF{},
		EscapeDelayMs:     &stats.CDF{},
	}
	if r.Duration > 0 {
		r.AvgBandwidthMbps = float64(a.wireBytes) * 8 / r.Duration.Seconds() / 1e6
	}

	// The looped packets of a class are the replicas of the validated
	// streams of that class: a looped record is a replica of exactly
	// one stream, and replicas differ from the stream's summarised
	// packet in TTL and IP checksum only, neither of which the
	// classification reads.
	for t, n := range a.icmpTypes {
		for range n {
			r.ICMPTypes.Add(t)
		}
	}
	var allCounts, loopCounts [numClasses]int
	for cell, n := range a.tally {
		if n > 0 {
			p := cellPacket(cell)
			mask := packet.Classify(&p)
			for c := 0; c < numClasses; c++ {
				if mask&(1<<c) != 0 {
					allCounts[c] += n
				}
			}
		}
	}
	for _, s := range res.Streams {
		for c := 0; c < numClasses; c++ {
			if s.Summary.ClassMask&(1<<c) != 0 {
				loopCounts[c] += s.Count()
			}
		}
	}
	for c := 0; c < numClasses; c++ {
		if r.TotalPackets > 0 {
			r.AllClassFrac[c] = float64(allCounts[c]) / float64(r.TotalPackets)
		}
		if r.LoopedPackets > 0 {
			r.LoopedClassFrac[c] = float64(loopCounts[c]) / float64(r.LoopedPackets)
		}
	}

	for _, s := range res.Streams {
		r.TTLDelta.Add(s.TTLDelta())
		r.ReplicasPerStream.Add(float64(s.Count()))
		r.SpacingMs.Add(float64(s.MeanSpacing()) / float64(time.Millisecond))
		r.StreamDurationMs.Add(float64(s.Duration()) / float64(time.Millisecond))
		r.DestSeries = append(r.DestSeries, destPoint{Time: s.Start(), Dst: s.Summary.Dst})
		if s.Escaped() {
			r.EscapedStreams++
			r.EscapeDelayMs.Add(float64(s.LoopDelay()) / float64(time.Millisecond))
		}
	}
	for _, l := range res.Loops {
		r.LoopDurationSec.Add(l.Duration().Seconds())
	}
	return r
}

// Analyze computes a Report from a trace held in memory and its
// detection result. recs must be the same records the detector
// consumed.
func Analyze(meta trace.Meta, recs []trace.Record, res *core.Result) *Report {
	a := NewAccumulator(meta)
	for _, rec := range recs {
		a.Add(rec)
	}
	return a.Finish(res)
}

// ReservedICMPFraction returns the fraction of ICMP packets whose
// type field is outside the assigned range (the anomalous-host
// signature).
func (r *Report) ReservedICMPFraction() float64 {
	if r.ICMPTypes.N == 0 {
		return 0
	}
	var n uint64
	for k, c := range r.ICMPTypes.Counts {
		if k >= 44 { // types 44-252 were reserved at the time
			n += c
		}
	}
	return float64(n) / float64(r.ICMPTypes.N)
}

// EscapeFraction returns the fraction of validated streams whose
// packet escaped the loop (paper §VI: between 1% and 10%).
func (r *Report) EscapeFraction() float64 {
	if r.ReplicaStreams == 0 {
		return 0
	}
	return float64(r.EscapedStreams) / float64(r.ReplicaStreams)
}
