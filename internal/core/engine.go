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

// Engine is the detection interface: the Detector and the multi-core
// ParallelDetector that shards the trace over several Detectors consume
// trace records in capture order through Observe and deliver the
// analysis through Finish. Callers construct an Engine with New and
// drive it with Run.
//
// Records must arrive in non-decreasing time order. Observe does not
// keep rec.Data past the call, so a caller may hand it a record
// borrowed from a trace.Source and reuse the bytes once Observe
// returns. Finish must be called exactly once, after the last
// Observe; the Engine must not be reused afterwards.
type Engine interface {
	Observe(trace.Record)
	Finish() *Result
}

// BatchObserver is implemented by the ParallelDetector, which takes a
// whole slice of records per call. Run does not use it (it observes
// one borrowed record at a time). It is kept only because the
// benchmark harness (bench/layers.go) compiles against it, and goes
// when that harness moves to Run (ROADMAP items 1 and 8).
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
// *ConfigError); incompatible option combinations are rejected. The
// engine's metrics and flight recorder are wired as it is built.
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
	// Default: use every core the runtime gives us; a single-core box
	// gets a bare Detector rather than a one-shard pipeline.
	workers := o.workers
	if workers == 0 && !o.streaming {
		workers = runtime.GOMAXPROCS(0)
	}
	var e Engine
	if workers > 1 {
		e = newParallelDetector(cfg, workers, o.metrics, o.flight)
	} else {
		workers = 1
		d := NewStreamDetector(cfg, o.emit)
		d.SetFlight(o.flight.Shard(0))
		e = d
	}
	o.metrics.Counter(obs.MetricEngineBuilds).Inc()
	o.metrics.Gauge(obs.MetricEngineWorkers).Set(int64(workers))
	return e, nil
}

// Run drives an Engine over a Source: it borrows each record into one
// Record, hands it to Observe, and returns the engine's Result
// once the source is drained. An engine that implements ErrFinisher
// (the ParallelDetector, after a worker panic) can also fail at finish
// time. On a read error the engine is still finished, so the parallel
// detector's workers are released, and the error is returned.
func Run(e Engine, src trace.Source) (*Result, error) {
	var rec trace.Record
	err := src.Borrow(&rec)
	for ; err == nil; err = src.Borrow(&rec) {
		e.Observe(rec)
	}
	var res *Result
	var ferr error
	if ef, ok := e.(ErrFinisher); ok {
		res, ferr = ef.FinishErr()
	} else {
		res = e.Finish()
	}
	if !errors.Is(err, io.EOF) {
		return nil, err
	}
	return res, ferr
}
