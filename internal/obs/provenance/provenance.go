// Package provenance is the pipeline's per-event timing record: a
// small set of hop timestamps that travels *with* each loop event from
// the detector that committed it to the fleet cluster that absorbed
// it, so an operator can ask "where did the time go" about one
// concrete event instead of correlating per-tier metrics after the
// fact.
//
// Hop model. Six hops cover the detect → publish → journal/webhook →
// agg-ingest → cluster pipeline:
//
//	detected      the source's detector committed the loop (serve emit)
//	published     the daemon's fan-out began (serve publish)
//	journaled     the daemon's journal append returned (durable)
//	webhook_sent  the webhook worker began the delivery attempt (push only)
//	ingested      the aggregator accepted the observation
//	clustered     the observation landed in a FleetLoop
//
// Clock discipline. Every stamp is wall-clock unix nanoseconds, but
// stamps taken inside one process all come from Now(), which anchors
// the wall clock once at process start and advances it by the
// monotonic clock — so same-process deltas (detect→publish,
// publish→journal, publish→webhook_sent) are exact even across NTP
// steps. Deltas that cross a process boundary (anything involving
// ingested/clustered, which the aggregator stamps with *its* clock)
// inherit the inter-host offset; the aggregator estimates that skew
// per vantage from ingest-time deltas and clamps negative per-hop
// latencies to zero rather than feeding them into histograms
// (Latencies marks them Clamped; loopscope_provenance_skew_total
// counts them).
//
// The ingested and clustered stamps are equal in the current
// synchronous aggregator (clustering happens under the ingest lock),
// and both are the journaled arrival stamp — which is what lets a
// kill -9 journal replay reproduce every latency sketch byte for
// byte: no wall clock is read while closing out replayed records.
package provenance

import (
	"time"

	"loopscope/pkg/loopscope"
)

// Hop names, also the keys of the aggregated latency table. The wire
// record declares them beside its Stamp method.
const (
	HopDetected    = loopscope.HopDetected
	HopPublished   = loopscope.HopPublished
	HopJournaled   = loopscope.HopJournaled
	HopWebhookSent = loopscope.HopWebhookSent
	HopIngested    = loopscope.HopIngested
	HopClustered   = loopscope.HopClustered
)

// Segment names: the hop-to-hop latencies the aggregator sketches,
// keyed (segment, vantage). publish_ingest is the transport segment
// both push and pull share; send_ingest refines it for push;
// detect_cluster is the end-to-end figure an operator cares about.
const (
	SegDetectPublish  = "detect_publish"
	segPublishJournal = "publish_journal"
	SegPublishSend    = "publish_send"
	SegSendIngest     = "send_ingest"
	segPublishIngest  = "publish_ingest"
	segIngestCluster  = "ingest_cluster"
	SegDetectCluster  = "detect_cluster"
)

// Segments is the canonical rendering order of the latency table.
var Segments = []string{
	SegDetectPublish, segPublishJournal, SegPublishSend,
	SegSendIngest, segPublishIngest, segIngestCluster, SegDetectCluster,
}

// SegmentRank orders segments for deterministic documents; unknown
// segments sort last.
func SegmentRank(seg string) int {
	for i, s := range Segments {
		if s == seg {
			return i
		}
	}
	return len(Segments)
}

// Record is the hop-timestamp record riding on a loop event ("prov"
// in the event JSON), declared with its Stamp method in pkg/loopscope.
// Records are treated as immutable once attached to an event.
type Record = loopscope.Provenance

// base anchors Now(): wall clock captured once, advanced monotonically.
var base = time.Now()

// Now returns monotonic-anchored wall-clock nanoseconds: the process
// start's wall reading plus monotonic elapsed time. Within one process
// it never goes backwards, so same-process hop deltas are exact.
func Now() int64 {
	return base.Add(time.Since(base)).UnixNano()
}

// SegmentLatency is one hop-to-hop delta computed from a record.
type SegmentLatency struct {
	Segment string
	// Ns is the latency; zero when Clamped.
	Ns int64
	// Clamped marks a negative cross-process delta (the downstream
	// clock read earlier than the upstream one — inter-host skew). The
	// value is clamped to zero and must be counted, never sketched.
	Clamped bool
	// CrossProcess marks segments whose endpoints were stamped by
	// different processes; only these can legitimately clamp.
	CrossProcess bool
}

// Latencies computes every segment both of whose endpoint stamps are
// present, in canonical order. Negative deltas are clamped and
// marked; a same-process negative delta is impossible by construction
// (monotonic anchoring) but clamped anyway for robustness against
// hand-built records.
func Latencies(r *Record) []SegmentLatency {
	if r == nil {
		return nil
	}
	out := make([]SegmentLatency, 0, len(Segments))
	add := func(seg string, from, to int64, cross bool) {
		if from <= 0 || to <= 0 {
			return
		}
		l := SegmentLatency{Segment: seg, Ns: to - from, CrossProcess: cross}
		if l.Ns < 0 {
			l.Ns, l.Clamped = 0, true
		}
		out = append(out, l)
	}
	add(SegDetectPublish, r.DetectedNs, r.PublishedNs, false)
	add(segPublishJournal, r.PublishedNs, r.JournaledNs, false)
	add(SegPublishSend, r.PublishedNs, r.WebhookSentNs, false)
	add(SegSendIngest, r.WebhookSentNs, r.IngestedNs, true)
	add(segPublishIngest, r.PublishedNs, r.IngestedNs, true)
	add(segIngestCluster, r.IngestedNs, r.ClusteredNs, true)
	add(SegDetectCluster, r.DetectedNs, r.ClusteredNs, true)
	return out
}
