package main

import (
	"math"
	"sort"
)

// metricDef names one metric the harness reports. The tables below are
// the single source of names, units and bounds: BENCHMARK.json, the
// README and the output are all checked against them by smoke_test.go.
type metricDef struct {
	Name string
	Unit string
	// Better is "higher" or "lower".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it regressed (0 for
	// per-layer metrics, which are never gated).
	Bound float64
	// Only restricts an end-to-end metric to the workloads it applies
	// to; empty means every workload. Metrics with a restriction are
	// gated by -compare only: BENCHMARK.json lists the unrestricted
	// ones, because its contract wants every metric from every
	// workload.
	Only []string
}

// endToEnd are the user-visible metrics, measured with tracing off by
// exec'ing the real binaries. Bounds were set from bench/baseline.json
// (see README, "How the bounds were derived").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_mrecord", Unit: "s/Mrecord", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "detect_cluster_ms_p50", Unit: "ms", Better: "lower", Bound: 0.50, Only: []string{"fleet_loopstorm"}},
	{Name: "snapshots_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: []string{"fibscan_timeline"}},
}

func (m metricDef) appliesTo(workload string) bool {
	if len(m.Only) == 0 {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer are the traced run's metrics. A name of the form
// "<span>.ns_per_<x>", ".allocs_per_<x>" or ".bytes_per_<x>" is derived
// from the spans called <span>: summed self time (or allocation delta)
// divided by summed work count. The rest are set explicitly.
var perLayer = []metricDef{
	layer("setup.build_s", "s", "lower"),
	layer("trace.read_native.ns_per_record", "ns/record", "lower"),
	layer("trace.read_native.allocs_per_record", "allocs/record", "lower"),
	layer("trace.read_native.bytes_per_record", "B/record", "lower"),
	layer("trace.read_pcap.ns_per_record", "ns/record", "lower"),
	layer("trace.read_pcap.allocs_per_record", "allocs/record", "lower"),
	layer("trace.read_erf.ns_per_record", "ns/record", "lower"),
	layer("trace.read_erf.allocs_per_record", "allocs/record", "lower"),
	layer("trace.read_gzip.ns_per_record", "ns/record", "lower"),
	layer("trace.read_salvage.ns_per_record", "ns/record", "lower"),
	layer("trace.read_salvage.recovered_ratio", "ratio", "higher"),
	layer("trace.read_tail.ns_per_record", "ns/record", "lower"),
	layer("trace.read_tail.allocs_per_record", "allocs/record", "lower"),
	layer("trace.batcher.ns_per_record", "ns/record", "lower"),
	layer("packet.decode.ns_per_record", "ns/record", "lower"),
	layer("packet.decode.allocs_per_record", "allocs/record", "lower"),
	layer("core.batch_observe.ns_per_record", "ns/record", "lower"),
	layer("core.batch_observe.allocs_per_record", "allocs/record", "lower"),
	layer("core.batch_observe.bytes_per_record", "B/record", "lower"),
	layer("core.batch_finish.ns_per_record", "ns/record", "lower"),
	layer("core.parallel_observe.ns_per_record", "ns/record", "lower"),
	layer("core.parallel_observe.allocs_per_record", "allocs/record", "lower"),
	layer("core.parallel_finish.ns_per_record", "ns/record", "lower"),
	layer("core.stream_observe.ns_per_record", "ns/record", "lower"),
	layer("core.stream_observe.allocs_per_record", "allocs/record", "lower"),
	layer("core.stream_observe.bytes_per_record", "B/record", "lower"),
	layer("core.stream_finish.ns_per_record", "ns/record", "lower"),
	layer("core.stream.peak_heap_mb", "MiB", "lower"),
	layer("core.session_observe.ns_per_record", "ns/record", "lower"),
	layer("core.looped_share", "ratio", "higher"),
	layer("core.loops", "count", "higher"),
	layer("analysis.analyze.ns_per_record", "ns/record", "lower"),
	layer("analysis.analyze.allocs_per_record", "allocs/record", "lower"),
	layer("analytics.record_loop.ns_per_event", "ns/event", "lower"),
	layer("analytics.record_loop.allocs_per_event", "allocs/event", "lower"),
	layer("analytics.query.ns", "ns", "lower"),
	layer("analytics.snapshot.ns_per_event", "ns/event", "lower"),
	layer("provenance.stamp.ns_per_event", "ns/event", "lower"),
	layer("serve.journal_publish.ns_per_event", "ns/event", "lower"),
	layer("serve.journal_publish.bytes_per_event", "B/event", "lower"),
	layer("serve.journal_publish_fsync.ns_per_event", "ns/event", "lower"),
	layer("serve.ring_publish.ns_per_event", "ns/event", "lower"),
	layer("serve.webhook_publish.ns_per_event", "ns/event", "lower"),
	layer("serve.webhook.dropped", "count", "lower"),
	layer("serve.checkpoint_save.ns", "ns", "lower"),
	layer("provenance.detect_publish_ms_p50", "ms", "lower"),
	layer("provenance.publish_send_ms_p50", "ms", "lower"),
	layer("provenance.send_ingest_ms_p50", "ms", "lower"),
	layer("provenance.detect_cluster_ms_p50", "ms", "lower"),
	layer("provenance.detect_cluster_ms_p99", "ms", "lower"),
	layer("agg.ingest_fresh.ns_per_event", "ns/event", "lower"),
	layer("agg.ingest_fresh.allocs_per_event", "allocs/event", "lower"),
	layer("agg.ingest_dup.ns_per_event", "ns/event", "lower"),
	layer("agg.ingest_http.ns_per_event", "ns/event", "lower"),
	layer("agg.fleet_loops.ns", "ns", "lower"),
	layer("agg.dup_ratio", "ratio", "lower"),
	layer("fibscan.read_file.ns_per_snapshot", "ns/snapshot", "lower"),
	layer("fibscan.scan.ns_per_snapshot", "ns/snapshot", "lower"),
	layer("fibscan.scan_timeline.ns_per_snapshot", "ns/snapshot", "lower"),
	layer("fibscan.collate.ns", "ns", "lower"),
	layer("fibscan.atoms", "count", "lower"),
	layer("fibscan.timeline_reuse_ratio", "ratio", "higher"),
	layer("layers.coverage", "ratio", "higher"),
}

// sample summarises the repetitions behind one reported number.
type sample struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
}

// summarize computes the order statistics of values. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// because that is what the benchmark's driver computes spreads with.
func summarize(unit string, values []float64) sample {
	s := sample{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Q1, s.Median, s.Q3 = quantile(v, 1), quantile(v, 2), quantile(v, 3)
	return s
}

// quantile returns the k-th quartile of sorted v.
func quantile(v []float64, k int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	pos := float64(k)*float64(n+1)/4 - 1
	lo := int(math.Floor(pos))
	lo = max(0, min(lo, n-2))
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// spread is the interquartile distance as a share of the median.
func (s sample) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
