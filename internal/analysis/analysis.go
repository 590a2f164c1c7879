// Package analysis turns detector output into the paper's tables and
// figures: Table I/II summaries, the TTL-delta distribution (Fig. 2),
// the CDFs of replica count, inter-replica spacing, stream duration
// and loop duration (Figs. 3, 4, 8, 9), the traffic-type mixes for all
// and for looped traffic (Figs. 5, 6), the destination time series
// (Fig. 7), and the §VI loss/delay impact estimates.
package analysis

import (
	"time"

	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// NumClasses is the number of traffic-type categories (Figure 5's
// x-axis).
const NumClasses = 11

// DestPoint is one Figure-7 sample: a replica stream's start time and
// destination address.
type DestPoint struct {
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
	AllClassFrac [NumClasses]float64
	// Figure 6: per-class fraction of looped packets.
	LoopedClassFrac [NumClasses]float64
	// Figure 7: destination addresses of replica streams over time.
	DestSeries []DestPoint
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
	allCounts   [NumClasses]int
	icmpTypes   stats.IntHist
}

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
	pkt, err := packet.Decode(rec.Data)
	if err != nil {
		return
	}
	if pkt.Kind == packet.KindICMP && pkt.HasTransport {
		a.icmpTypes.Add(int(pkt.ICMP.Type))
	}
	mask := packet.Classify(&pkt)
	for c := 0; c < NumClasses; c++ {
		if mask&(1<<c) != 0 {
			a.allCounts[c]++
		}
	}
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
		ICMPTypes:         &a.icmpTypes,
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
	var loopCounts [NumClasses]int
	for _, s := range res.Streams {
		for c := 0; c < NumClasses; c++ {
			if s.Summary.ClassMask&(1<<c) != 0 {
				loopCounts[c] += s.Count()
			}
		}
	}
	for c := 0; c < NumClasses; c++ {
		if r.TotalPackets > 0 {
			r.AllClassFrac[c] = float64(a.allCounts[c]) / float64(r.TotalPackets)
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
		r.DestSeries = append(r.DestSeries, DestPoint{Time: s.Start(), Dst: s.Summary.Dst})
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

// LossReport summarises the §VI loss analysis from simulator
// accounting.
type LossReport struct {
	// PerMinuteLoopShare is, for each trace minute, the share of that
	// minute's drops attributable to loops (TTL expiry of looped
	// packets).
	PerMinuteLoopShare []float64
	// MaxLoopShare is the worst minute's share — the paper reports up
	// to 0.09 (9%) depending on the trace.
	MaxLoopShare float64
	// OverallLossRate is total drops / total injected.
	OverallLossRate float64
	// OverallLoopLossRate is loop-attributable drops / total injected.
	OverallLoopLossRate float64
}

// AnalyzeLoss extracts a LossReport from a simulated network.
func AnalyzeLoss(n *netsim.Network) *LossReport {
	lr := &LossReport{}
	var drops, loopDrops uint64
	for _, m := range n.Minutes {
		d := m.TotalDrops()
		drops += d
		loopDrops += m.LoopDrops
		share := 0.0
		if d > 0 {
			share = float64(m.LoopDrops) / float64(d)
		}
		lr.PerMinuteLoopShare = append(lr.PerMinuteLoopShare, share)
		if share > lr.MaxLoopShare {
			lr.MaxLoopShare = share
		}
	}
	if n.Injected > 0 {
		lr.OverallLossRate = float64(drops) / float64(n.Injected)
		lr.OverallLoopLossRate = float64(loopDrops) / float64(n.Injected)
	}
	return lr
}

// DelayReport summarises the §VI extra-delay analysis from simulator
// ground truth: packets that escaped a loop versus packets that never
// looped.
type DelayReport struct {
	// EscapedCount is the number of delivered packets that had
	// looped.
	EscapedCount int
	// EscapeFraction is escaped / all looped packets.
	EscapeFraction float64
	// CleanMeanDelay is the mean delay of never-looped deliveries.
	CleanMeanDelay time.Duration
	// ExtraDelayMs is the CDF of (escaped delay - clean mean) in
	// milliseconds.
	ExtraDelayMs *stats.CDF
}

// AnalyzeDelay extracts a DelayReport from a simulated network. The
// network must retain looped fates (the default FateFilter does).
func AnalyzeDelay(n *netsim.Network) *DelayReport {
	dr := &DelayReport{
		CleanMeanDelay: n.CleanMeanDelay(),
		ExtraDelayMs:   &stats.CDF{},
	}
	looped := 0
	for _, f := range n.Fates {
		if f.LoopCount == 0 {
			continue
		}
		looped++
		if f.Delivered {
			dr.EscapedCount++
			extra := f.Delay - dr.CleanMeanDelay
			if extra < 0 {
				extra = 0
			}
			dr.ExtraDelayMs.Add(float64(extra) / float64(time.Millisecond))
		}
	}
	if looped > 0 {
		dr.EscapeFraction = float64(dr.EscapedCount) / float64(looped)
	}
	return dr
}
