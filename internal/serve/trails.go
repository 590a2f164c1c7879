package serve

import (
	"encoding/json"
	"log/slog"
	"sync"

	"loopscope/internal/durable"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/resil"
)

// TrailLogOptions configures NewTrailLog.
type TrailLogOptions struct {
	// Path is the JSONL file trails append to.
	Path string
	// Fsync selects the flush-to-stable-storage policy.
	Fsync FsyncPolicy
	// Injector, when non-nil, is consulted before every append (chaos
	// tests); production passes nil.
	Injector resil.Injector
	// Metrics counts torn-tail repairs (may be nil).
	Metrics *obs.Registry
	// Logger logs write failures (nil: silent).
	Logger *slog.Logger
}

// TrailLog persists sealed flight-recorder trails as JSONL — one trail
// (the full decision history behind one journaled loop event) per
// line. It is deliberately append-only and dedup-free: trails are
// keyed by the same deterministic loop ID as journal events, so a
// consumer joins the two files on ID and resolves re-emission
// duplicates exactly as it does for the journal. Like the journal it
// is a durable.Log: a torn trailing line left by a crash is
// quarantined on open.
type TrailLog struct {
	mu     sync.Mutex
	file   *durable.Log
	log    *slog.Logger
	closed bool
}

// NewTrailLog opens (creating if needed) the trail log.
func NewTrailLog(opts TrailLogOptions) (*TrailLog, error) {
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	file, torn, err := durable.OpenLog(opts.Path, opts.Fsync, opts.Injector, resil.OpTrailWrite)
	if err != nil {
		return nil, err
	}
	obs.NoteTornRepair(opts.Metrics, log, "trails", opts.Path, torn)
	return &TrailLog{file: file, log: log}, nil
}

// Write appends one trail. Nil-safe: a nil receiver (trail persistence
// disabled) and a nil trail (not sealed, e.g. ring overwritten) are
// both no-ops. Trails are diagnostic evidence, not the durable record,
// so a failed write is logged and the trail lost — the journal event
// it annotates is retried separately.
func (t *TrailLog) Write(tr *flight.Trail) {
	if t == nil || tr == nil {
		return
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.log.Warn("trail log: marshal failed", "trail", tr.ID, "err", err)
		return
	}
	data = append(data, '\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if err := t.file.Append(data); err != nil {
		t.log.Warn("trail log: write failed", "trail", tr.ID, "err", err)
	}
}

// Close releases the file. Nil-safe.
func (t *TrailLog) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return t.file.Close()
}
