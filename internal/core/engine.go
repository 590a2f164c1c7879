package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/trace"
)

// Engine is the detection interface: the Detector, the multi-core
// ParallelDetector that shards the trace over several Detectors, and
// the NaiveDetector reference all consume trace records in capture
// order through Observe and deliver the analysis through Finish.
// Callers construct an Engine with New and stop switching on concrete
// types.
//
// Records must arrive in non-decreasing time order. Observe does not
// keep rec.Data past the call, so a caller may hand it a record
// borrowed from a reader (trace.Borrower) and reuse the bytes once
// Observe returns. Finish must be called exactly once, after the last
// Observe; the Engine must not be reused afterwards.
type Engine interface {
	Observe(trace.Record)
	Finish() *Result
}

// BatchObserver is implemented by engines that ingest records more
// efficiently in slices (the ParallelDetector hands whole batches to
// its shard channels). Run feeds batches through this interface when
// the engine provides it.
type BatchObserver interface {
	ObserveBatch([]trace.Record)
}

// ErrFinisher is implemented by engines whose Finish can fail without
// the failure being the caller's fault — the ParallelDetector, whose
// worker shards recover panics and surface them as a wrapped
// ErrWorkerPanic. Run finishes through this interface when the engine
// provides it; on engines without it Finish cannot fail.
type ErrFinisher interface {
	FinishErr() (*Result, error)
}

// ConfigError is the single error type every invalid Config produces,
// whichever constructor rejects it.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason states the violated constraint.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s %s", e.Field, e.Reason)
}

// Validate checks the configuration against the constraints every
// detector variant shares. It returns a *ConfigError describing the
// first violation, or nil.
func (cfg Config) Validate() error {
	switch {
	case cfg.MinReplicas < 2:
		return &ConfigError{Field: "MinReplicas", Reason: "must be at least 2"}
	case cfg.MemberReplicas < 2 || cfg.MemberReplicas > cfg.MinReplicas:
		return &ConfigError{Field: "MemberReplicas", Reason: "must be in [2, MinReplicas]"}
	case cfg.MinTTLDelta < 1:
		return &ConfigError{Field: "MinTTLDelta", Reason: "must be at least 1"}
	case cfg.PrefixBits < 0 || cfg.PrefixBits > 32:
		return &ConfigError{Field: "PrefixBits", Reason: "must be in [0, 32]"}
	case cfg.MaxReplicaGap <= 0:
		return &ConfigError{Field: "MaxReplicaGap", Reason: "must be positive"}
	case cfg.MergeWindow < 0:
		return &ConfigError{Field: "MergeWindow", Reason: "must not be negative"}
	case cfg.MaxActiveStreams < 0:
		return &ConfigError{Field: "MaxActiveStreams", Reason: "must not be negative"}
	}
	return nil
}

// options collects the functional-option state New folds up.
type options struct {
	workers   int
	streaming bool
	emit      func(*Loop)
	metrics   *obs.Registry
	flight    *flight.Recorder
}

// Option configures New.
type Option func(*options)

// WithWorkers selects the multi-core ParallelDetector with n worker
// shards. n == 0 means runtime.GOMAXPROCS(0); n == 1 degenerates to
// a single Detector (identical output, no pipeline overhead).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithStreaming selects a single Detector that hands every loop to
// emit (may be nil) as soon as the loop can no longer change.
func WithStreaming(emit func(*Loop)) Option {
	return func(o *options) {
		o.streaming = true
		o.emit = emit
	}
}

// WithMetrics instruments the engine against a metrics registry: the
// engine records its worker count, and the ParallelDetector
// additionally its per-shard record counters, queue-depth gauges,
// backpressure counters and reduce-stage span. A nil registry is the
// uninstrumented default and costs nothing on the hot path.
func WithMetrics(r *obs.Registry) Option {
	return func(o *options) { o.metrics = r }
}

// WithFlight attaches a flight recorder: the engine records stream,
// candidate and loop lifecycle events into it, keyed by destination
// prefix, so a finalized loop's decision trail can be sealed and
// explained afterwards. A nil recorder is the uninstrumented default
// and costs one predictable branch per replica on the hot path.
// Recording never changes detection results.
func WithFlight(rec *flight.Recorder) Option {
	return func(o *options) { o.flight = rec }
}

// New constructs a detection engine. With no options it shards the
// trace over one Detector per core; WithWorkers sets the shard count
// and WithStreaming selects one Detector with an emit hook. The
// configuration is validated uniformly (every violation surfaces as a
// *ConfigError); incompatible option combinations are rejected.
func New(cfg Config, opts ...Option) (Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("core: WithWorkers(%d): worker count must not be negative", o.workers)
	}
	if o.workers > 1 && o.streaming {
		return nil, errors.New("core: WithWorkers(>1) cannot be combined with WithStreaming")
	}
	e, workers, err := build(cfg, &o)
	if err != nil {
		return nil, err
	}
	if o.metrics != nil {
		o.metrics.Counter(obs.MetricEngineBuilds).Inc()
		o.metrics.Gauge(obs.MetricEngineWorkers).Set(int64(workers))
		if pd, ok := e.(*ParallelDetector); ok {
			pd.Instrument(o.metrics)
		}
	}
	if o.flight != nil {
		switch det := e.(type) {
		case *ParallelDetector:
			det.SetFlightRecorder(o.flight)
		case *Detector:
			det.SetFlight(o.flight.Shard(0))
		}
	}
	return e, nil
}

// build selects the detector variant; it reports the worker count the
// choice implies (1 for the sequential variants) for the engine gauge.
func build(cfg Config, o *options) (Engine, int, error) {
	switch {
	case o.streaming:
		return NewStreamDetector(cfg, o.emit), 1, nil
	case o.workers == 1:
		return NewDetector(cfg), 1, nil
	case o.workers != 0:
		return NewParallelDetector(cfg, o.workers), o.workers, nil
	}
	// Default: use every core the runtime gives us; a single-core
	// box gets a bare Detector rather than a one-shard pipeline.
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return NewParallelDetector(cfg, n), n, nil
	}
	return NewDetector(cfg), 1, nil
}

// Run drives an Engine over a Source, reading records in batches (the
// pipeline's decode/batch stage) and handing them to the engine —
// whole slices at a time when it implements BatchObserver. It returns
// the engine's Result after the source is drained; an engine that
// implements ErrFinisher (the ParallelDetector, after a worker panic)
// can also fail at finish time.
func Run(e Engine, src trace.Source) (*Result, error) {
	return RunMetered(e, src, nil)
}

// RunMetered is Run with pipeline instrumentation: the batcher counts
// hand-offs into r and the ingest and finish stages are timed as
// spans. A nil registry makes it exactly Run.
func RunMetered(e Engine, src trace.Source, r *obs.Registry) (*Result, error) {
	b := trace.NewBatcher(src, trace.DefaultBatchSize)
	b.Instrument(r)
	bo, batched := e.(BatchObserver)
	ingest := r.StartSpan("ingest")
	for {
		recs, err := b.Next()
		if len(recs) > 0 {
			if batched {
				bo.ObserveBatch(recs)
			} else {
				for _, rec := range recs {
					e.Observe(rec)
				}
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// Release engine resources before reporting: the parallel
			// detector's workers block on their shard channels until
			// finished, so abandoning the engine here would leak them.
			ingest.End()
			if ef, ok := e.(ErrFinisher); ok {
				ef.FinishErr()
			} else {
				e.Finish()
			}
			return nil, err
		}
	}
	ingest.End()
	fin := r.StartSpan("finish")
	defer fin.End()
	if ef, ok := e.(ErrFinisher); ok {
		return ef.FinishErr()
	}
	return e.Finish(), nil
}
