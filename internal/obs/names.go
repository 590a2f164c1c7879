package obs

import "fmt"

// Canonical metric names. Instrumented layers and consumers (the
// progress reporter, tests, dashboards) agree on these constants
// instead of scattering string literals.
const (
	// Ingest (the tap, trace.File).
	MetricTraceRecords      = "loopscope_trace_records_total"
	MetricTraceCaptureBytes = "loopscope_trace_capture_bytes_total"
	MetricTraceWireBytes    = "loopscope_trace_wire_bytes_total"
	MetricTraceLossGaps     = "loopscope_trace_loss_gaps_total"
	MetricTraceLostPackets  = "loopscope_trace_lost_packets_total"

	// Salvage decode health (gauges mirroring the live DecodeStats).
	MetricSalvageRecords      = "loopscope_salvage_records"
	MetricSalvageSalvaged     = "loopscope_salvage_salvaged"
	MetricSalvageErrors       = "loopscope_salvage_errors"
	MetricSalvageResyncs      = "loopscope_salvage_resyncs"
	MetricSalvageBytesSkipped = "loopscope_salvage_bytes_skipped"

	// Detection pipeline (core's parallel detector). The per-shard
	// series carry a shard label; build names with ShardMetric.
	MetricShardRecords       = "loopscope_detect_shard_records_total"
	MetricShardQueueDepth    = "loopscope_detect_queue_depth"
	MetricBackpressureNs     = "loopscope_detect_backpressure_ns_total"
	MetricBackpressureEvents = "loopscope_detect_backpressure_events_total"
	MetricEngineWorkers      = "loopscope_engine_workers"
	MetricEngineBuilds       = "loopscope_engine_builds_total"

	// Continuous serving (internal/serve). Per-source series carry a
	// source label, per-sink series a sink label; build names with
	// LabelMetric.
	MetricServeSourceRecords   = "loopscope_serve_source_records_total"
	MetricServeSourceLagBytes  = "loopscope_serve_source_lag_bytes"
	MetricServeSourceRestarts  = "loopscope_serve_source_restarts_total"
	MetricServeEventsFinal     = "loopscope_serve_events_final_total"
	MetricServeEventsTruncated = "loopscope_serve_events_truncated_total"
	MetricServeSinkQueueDepth  = "loopscope_serve_sink_queue_depth"
	MetricServeSinkDelivered   = "loopscope_serve_sink_delivered_total"
	MetricServeSinkDropped     = "loopscope_serve_sink_dropped_total"
	MetricServeSinkRetries     = "loopscope_serve_sink_retries_total"
	MetricServeJournalDup      = "loopscope_serve_journal_duplicates_total"
	MetricServeCheckpoints     = "loopscope_serve_checkpoints_total"
	// Resume: records re-fed from a checkpoint's restart point, per
	// source, and resumes that could not rebuild the detector exactly,
	// per reason (checkpoint_ahead_of_file, replay_read_error,
	// position_disagrees, restart_segment_missing,
	// governor_shed_since_restart, no_restart_point).
	MetricServeRecordsReplayed = "loopscope_serve_records_replayed_total"
	MetricServeResumeFresh     = "loopscope_serve_resume_fresh_total"

	// Daemon self-observability: how far behind live each source is
	// (bytes behind the tail / rotated segments behind the directory
	// head), detection latency (trace-clock packet time to event
	// emission), and when the last checkpoint landed.
	MetricServeSourceLagSegments = "loopscope_serve_source_lag_segments"
	MetricServeDetectLatencyNs   = "loopscope_serve_detect_latency_ns"
	MetricServeCheckpointUnixNs  = "loopscope_serve_checkpoint_last_unix_ns"

	// Structured logging: messages emitted per level (a rising error
	// rate is scrapeable without log shipping). Series carry a level
	// label; build names with LabelMetric.
	MetricLogMessages = "loopscope_log_messages_total"

	// Resilience (internal/resil wiring in serve and core). Shed
	// series carry a reason label, health series a component label,
	// breaker series a sink label; build names with LabelMetric.
	MetricShed               = "loopscope_shed_total"
	MetricComponentHealth    = "loopscope_component_health"
	MetricBreakerState       = "loopscope_breaker_state"
	MetricBreakerTransitions = "loopscope_breaker_transitions_total"
	MetricJournalRequeued    = "loopscope_serve_journal_requeued_total"
	metricTornRepairs        = "loopscope_serve_torn_repairs_total"
	MetricJournalSkipped     = "loopscope_journal_lines_skipped_total"

	// Time-partitioned journal retention and analytics persistence.
	MetricJournalSegmentsPruned = "loopscope_serve_journal_segments_pruned_total"
	MetricAnalyticsIngested     = "loopscope_analytics_ingested_total"
	MetricAnalyticsDeduped      = "loopscope_analytics_deduped_total"

	// Fleet aggregation (internal/agg, the loopscope-agg daemon).
	// Per-vantage series carry a vantage label; build names with
	// LabelMetric.
	MetricAggObservations  = "loopscope_agg_observations_total"
	MetricAggDuplicates    = "loopscope_agg_duplicates_total"
	MetricAggFleetLoops    = "loopscope_agg_fleet_loops"
	MetricAggVantages      = "loopscope_agg_vantages"
	MetricAggVantageLagNs  = "loopscope_agg_vantage_lag_ns"
	MetricAggPollErrors    = "loopscope_agg_poll_errors_total"
	MetricAggJournalErrors = "loopscope_agg_journal_errors_total"
	// MetricProvenanceSkewTotal counts negative cross-process
	// provenance latencies (vantage clock ahead of the aggregator)
	// that were clamped to zero instead of entering a latency sketch.
	MetricProvenanceSkewTotal = "loopscope_provenance_skew_total"
)

// DetectLatencyBounds are the default bucket upper bounds (in
// nanoseconds) for the detection-latency histogram: 1ms to 5min. The
// latency is dominated by the algorithm's decision horizon (MergeWindow
// + settle barriers), so buckets span human-scale waits, not
// microseconds.
var DetectLatencyBounds = []int64{
	int64(1e6), int64(1e7), int64(1e8), // 1ms, 10ms, 100ms
	int64(1e9), int64(1e10), int64(6e10), int64(3e11), // 1s, 10s, 1min, 5min
}

// metricHelp holds one-line HELP strings per metric family for the
// Prometheus exposition. Families not listed get a generic line; keep
// entries terse and newline-free.
var metricHelp = map[string]string{
	MetricTraceRecords:      "Trace records decoded.",
	MetricTraceCaptureBytes: "Captured snapshot bytes read.",
	MetricTraceWireBytes:    "Original wire bytes represented by the capture.",
	MetricTraceLossGaps:     "Capture loss gaps reported by the format.",
	MetricTraceLostPackets:  "Packets the capture reports as lost.",

	MetricSalvageRecords:      "Records decoded in salvage mode.",
	MetricSalvageSalvaged:     "Records recovered after a resync.",
	MetricSalvageErrors:       "Decode errors consumed by the salvage budget.",
	MetricSalvageResyncs:      "Salvage resync scans performed.",
	MetricSalvageBytesSkipped: "Bytes skipped while resyncing.",

	MetricShardRecords:       "Records consumed per detector shard.",
	MetricShardQueueDepth:    "Batches queued per detector shard.",
	MetricBackpressureNs:     "Nanoseconds producers spent blocked on full shard queues.",
	MetricBackpressureEvents: "Producer sends that blocked on a full shard queue.",
	MetricEngineWorkers:      "Detector worker shards.",
	MetricEngineBuilds:       "Detection engines constructed.",

	MetricServeSourceRecords:     "Records consumed per source.",
	MetricServeSourceLagBytes:    "Bytes between a source's read position and the newest capture data.",
	MetricServeSourceRestarts:    "Source supervisor restarts.",
	MetricServeEventsFinal:       "Final loop events emitted.",
	MetricServeEventsTruncated:   "Truncated loop events emitted during drain.",
	MetricServeSinkQueueDepth:    "Events queued per sink.",
	MetricServeSinkDelivered:     "Events delivered per sink.",
	MetricServeSinkDropped:       "Events dropped per sink.",
	MetricServeSinkRetries:       "Sink delivery retries.",
	MetricServeJournalDup:        "Journal publishes suppressed as duplicates.",
	MetricServeCheckpoints:       "Checkpoints written.",
	MetricServeRecordsReplayed:   "Records re-fed from a checkpoint's restart point per source.",
	MetricServeResumeFresh:       "Resumes that started fresh or inexact, by reason.",
	MetricServeSourceLagSegments: "Rotated segments between a dir source's position and the directory head.",
	MetricServeDetectLatencyNs:   "Nanoseconds from a loop's last packet (trace clock) to its emission.",
	MetricServeCheckpointUnixNs:  "Unix time (ns) of the last successful checkpoint.",

	MetricLogMessages: "Log messages emitted per level.",

	MetricShed:                  "Work shed by overload self-protection, by reason.",
	MetricComponentHealth:       "Component health state (0 healthy, 1 degraded, 2 failing).",
	MetricBreakerState:          "Circuit breaker position (0 closed, 1 half-open, 2 open).",
	MetricBreakerTransitions:    "Circuit breaker state transitions.",
	MetricJournalRequeued:       "Journal events parked for retry after a write failure.",
	metricTornRepairs:           "Torn (partial) trailing lines quarantined on startup.",
	MetricJournalSegmentsPruned: "Journal segments deleted by time-partitioned retention.",
	MetricAnalyticsIngested:     "Loop events folded into the analytics sketches.",
	MetricAnalyticsDeduped:      "Replayed loop events suppressed by the analytics seen-ID ring.",
	MetricJournalSkipped:        "Undecodable or over-long journal lines skipped during replay, per file.",

	MetricAggObservations:     "Loop observations accepted per vantage.",
	MetricAggDuplicates:       "Redelivered observations suppressed per vantage.",
	MetricAggFleetLoops:       "Deduplicated fleet-level loops currently known.",
	MetricAggVantages:         "Vantages the aggregator has heard from.",
	MetricAggVantageLagNs:     "Nanoseconds since a vantage's last observation arrived.",
	MetricAggPollErrors:       "Failed pull-transport poll rounds per vantage.",
	MetricAggJournalErrors:    "Observation journal append failures.",
	MetricProvenanceSkewTotal: "Clock-skewed provenance latencies clamped per vantage.",

	"loopscope_stage_seconds_total": "Wall-clock seconds spent per pipeline stage.",
	"loopscope_stage_runs_total":    "Completed spans per pipeline stage.",
}

// helpFor returns the HELP string for a metric family (the name
// with any label suffix stripped).
func helpFor(family string) string {
	if h, ok := metricHelp[family]; ok {
		return h
	}
	return "loopscope metric " + family + "."
}

// ShardMetric returns the per-shard series name for a shard-labelled
// metric family, e.g. ShardMetric(MetricShardRecords, 3) =
// `loopscope_detect_shard_records_total{shard="3"}`.
func ShardMetric(family string, shard int) string {
	return LabelMetric(family, "shard", fmt.Sprint(shard))
}

// LabelMetric returns the labelled series name for a metric family,
// e.g. LabelMetric(MetricServeSourceRecords, "source", "backbone1") =
// `loopscope_serve_source_records_total{source="backbone1"}`.
func LabelMetric(family, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", family, key, value)
}
