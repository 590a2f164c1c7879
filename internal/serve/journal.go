package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loopscope/internal/durable"
	"loopscope/internal/obs"
	"loopscope/internal/resil"
)

// FsyncPolicy selects how aggressively the journal and trail log flush
// to stable storage; the type and its values live in internal/durable.
type FsyncPolicy = durable.FsyncPolicy

const (
	FsyncOff    = durable.FsyncOff
	FsyncAlways = durable.FsyncAlways
)

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "off":
		return FsyncOff, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncOff, fmt.Errorf("serve: unknown fsync policy %q (want off or always)", s)
}

// JournalOptions configures NewJournal.
type JournalOptions struct {
	// Path is the JSONL file events append to.
	Path string
	// MaxBytes rotates the file once it would exceed this size
	// (<= 0: never rotate by size). A rotated file is a segment named
	// path.<unix-seconds>, its rotation instant.
	MaxBytes int64
	// Retain, when positive, is the retention horizon: a live segment
	// also rotates once its age exceeds Retain/8 (clamped to
	// [1min, 24h]), and segments older than Retain are deleted at open
	// and on every rotation — days of operation stay bounded on disk
	// without an external logrotate. Zero never prunes.
	Retain time.Duration
	// Now supplies the retention clock; nil uses time.Now. Tests pin it.
	Now func() time.Time
	// PendingMax bounds the in-memory retry queue for events whose
	// write failed (<= 0: 1024). While the queue is non-empty the
	// journal is degraded; when it overflows, new events are dropped
	// (counted) — bounded memory beats unbounded hope.
	PendingMax int
	// Fsync selects the flush-to-stable-storage policy.
	Fsync FsyncPolicy
	// Injector, when non-nil, is consulted before every file append
	// (chaos tests); production passes nil.
	Injector resil.Injector
	// Health, when non-nil, receives the journal's health state.
	Health *resil.HealthSet
	// Metrics receives the delivered/duplicate/dropped counters (may
	// be nil).
	Metrics *obs.Registry
	// Logger logs write and rotation failures (nil: silent).
	Logger *slog.Logger
}

// Journal is the append-only JSONL event sink — the daemon's durable
// record of every loop it has reported. One JSON object per line, in a
// durable.Log (which owns torn-tail repair on open, the single write
// per line and the fsync policy); this type is the policy around it.
//
// The journal is the exactly-once edge of the at-least-once pipeline:
// on open it scans the existing file (and rotated segments) for event
// IDs, and Publish drops events whose ID it has already written. A
// daemon restarted from a checkpoint therefore never duplicates a line
// no matter where the crash fell relative to the checkpoint.
//
// Writes go straight to the file descriptor (no userspace buffer), so
// an event survives the process dying the instant Publish returns; an
// OS crash can still lose the tail, which checkpoint resume turns into
// re-emission, not loss (FsyncAlways closes that window too).
//
// A failed write parks the event in a bounded pending queue retried on
// every subsequent Publish and on Close, so a transient failure window
// (ENOSPC, briefly unwritable disk) delays events instead of losing
// them. A crash during such a window loses at most the queue's
// contents — the same events the write failure already made
// non-durable.
type Journal struct {
	opts JournalOptions
	log  *slog.Logger
	now  func() time.Time

	mu        sync.Mutex
	file      *durable.Log
	segOpened time.Time           // when the live segment began (age-based rotation)
	seen      map[string]struct{} // IDs written or parked for retry
	pending   [][]byte            // marshaled lines awaiting retry, in order
	closed    bool

	delivered *obs.Counter
	dups      *obs.Counter
	drops     *obs.Counter
	requeued  *obs.Counter
	pruned    *obs.Counter
	skipped   *obs.Counter
}

// NewJournal opens (creating if needed) the journal at opts.Path —
// quarantining a torn trailing line left by a crash — prunes expired
// segments, and loads the dedup index from the rotated segments and the
// live file.
func NewJournal(opts JournalOptions) (*Journal, error) {
	if opts.PendingMax <= 0 {
		opts.PendingMax = 1024
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	file, torn, err := durable.OpenLog(opts.Path, opts.Fsync, opts.Injector, resil.OpJournalWrite)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	obs.NoteTornRepair(opts.Metrics, log, "journal", opts.Path, torn)
	j := &Journal{
		opts:      opts,
		log:       log,
		now:       now,
		file:      file,
		segOpened: now(),
		seen:      make(map[string]struct{}),
		delivered: opts.Metrics.Counter(obs.LabelMetric(obs.MetricServeSinkDelivered, "sink", "journal")),
		dups:      opts.Metrics.Counter(obs.MetricServeJournalDup),
		drops:     opts.Metrics.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "journal")),
		requeued:  opts.Metrics.Counter(obs.MetricJournalRequeued),
		pruned:    opts.Metrics.Counter(obs.MetricJournalSegmentsPruned),
		skipped:   opts.Metrics.Counter(obs.LabelMetric(obs.MetricJournalSkipped, "file", "journal")),
	}
	j.pruneLocked()
	for _, seg := range j.segmentsLocked() {
		j.loadSeen(seg.path)
	}
	j.loadSeen(opts.Path)
	if st, err := os.Stat(opts.Path); err == nil && st.Size() > 0 && st.ModTime().Before(j.segOpened) {
		// Resuming into an existing live file: age it from its last
		// write, not from this restart, so retention holds across
		// crash loops.
		j.segOpened = st.ModTime()
	}
	opts.Health.Set("journal", resil.Healthy)
	return j, nil
}

// segmentSpan is how long a live segment may grow before the journal
// rotates it when a retention horizon is set: an eighth of the horizon,
// clamped to [1min, 24h], so pruning granularity tracks the retention
// window.
func (j *Journal) segmentSpan() time.Duration {
	span := j.opts.Retain / 8
	if span < time.Minute {
		span = time.Minute
	}
	if span > 24*time.Hour {
		span = 24 * time.Hour
	}
	return span
}

// journalSegment is one rotated file next to the live journal.
type journalSegment struct {
	path string
	// unix is the rotation instant in seconds, or 0 for a counted
	// generation (path.1, path.2, …) written by a build that predates
	// timestamped rotation: still indexed for dedup, never pruned.
	unix int64
}

// segmentsLocked lists the rotated segments, oldest first.
func (j *Journal) segmentsLocked() []journalSegment {
	matches, err := filepath.Glob(j.opts.Path + ".*")
	if err != nil {
		return nil
	}
	var segs []journalSegment
	for _, m := range matches {
		n, err := strconv.ParseInt(strings.TrimPrefix(m, j.opts.Path+"."), 10, 64)
		if err != nil || n <= 0 {
			continue // sidecars, tempfiles, anything an operator left
		}
		switch {
		case n < 1e9:
			n = 0 // a suffix this small is a generation count, not an instant
		case n > 1e15:
			n /= int64(time.Second) // collision fallback wrote nanoseconds
		}
		segs = append(segs, journalSegment{path: m, unix: n})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].unix < segs[b].unix })
	return segs
}

// pruneLocked deletes segments older than Retain (none when Retain is
// zero). A segment's timestamp is its rotation instant — the age of its
// youngest line — so a segment is deleted only when everything in it
// has expired.
func (j *Journal) pruneLocked() {
	if j.opts.Retain <= 0 {
		return
	}
	cutoff := j.now().Add(-j.opts.Retain).Unix()
	for _, seg := range j.segmentsLocked() {
		if seg.unix == 0 || seg.unix >= cutoff {
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			j.log.Warn("journal: pruning segment failed", "path", seg.path, "err", err)
			continue
		}
		j.pruned.Inc()
		j.log.Info("journal: pruned expired segment", "path", seg.path)
	}
}

// loadSeen indexes the event IDs of an existing journal file; a
// missing or partially unreadable file contributes what it can.
// Unparseable lines (a torn line in a rotated segment, bit rot) are
// tolerated, counted and logged — a dedup index short one ID risks only
// a duplicate line downstream consumers already handle, while refusing
// to start risks the daemon.
func (j *Journal) loadSeen(path string) {
	skipped, err := durable.Replay(path, func(line []byte) error {
		var rec struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.ID == "" {
			return errors.New("journal line without an event id")
		}
		j.seen[rec.ID] = struct{}{}
		return nil
	})
	if err != nil {
		j.log.Warn("journal: dedup scan stopped early", "path", path, "err", err)
	}
	if skipped > 0 {
		j.skipped.Add(int64(skipped))
		j.log.Warn("journal: dedup scan skipped unparseable lines", "path", path, "lines", skipped)
	}
}

// Name implements Sink.
func (j *Journal) Name() string { return "journal" }

// Publish implements Sink: append the event as one JSON line, unless
// its ID was already journaled (or is already parked for retry). The
// journal is the pipeline's durable record, so a failed write is never
// silent: the event is parked in the bounded pending queue (retried on
// every Publish and on Close) and counted; only queue overflow drops.
func (j *Journal) Publish(e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		j.drops.Inc()
		j.log.Warn("journal: marshaling event failed", "event", e.ID, "err", err)
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.seen[e.ID]; dup {
		j.dups.Inc()
		return
	}
	if j.closed {
		j.drops.Inc()
		j.log.Warn("journal: event published after Close; dropped", "event", e.ID)
		return
	}
	// Parked events go first: they are older, and order within the
	// journal should follow publication order when possible.
	j.flushPendingLocked()
	if len(j.pending) > 0 {
		// Still failing: park the newcomer behind them.
		j.parkLocked(e.ID, data)
		return
	}
	if err := j.writeLocked(data); err != nil {
		j.log.Warn("journal: writing event failed; parked for retry", "event", e.ID, "err", err)
		j.parkLocked(e.ID, data)
		return
	}
	j.seen[e.ID] = struct{}{}
}

// parkLocked queues a marshaled line for retry, dropping on overflow.
func (j *Journal) parkLocked(id string, data []byte) {
	if len(j.pending) >= j.opts.PendingMax {
		j.drops.Inc()
		j.log.Warn("journal: pending queue full; event dropped", "event", id, "pending", len(j.pending))
		return
	}
	j.pending = append(j.pending, data)
	j.seen[id] = struct{}{}
	j.requeued.Inc()
	j.opts.Health.Set("journal", resil.Degraded)
}

// flushPendingLocked retries parked events in order, stopping at the
// first failure.
func (j *Journal) flushPendingLocked() {
	for len(j.pending) > 0 {
		if err := j.writeLocked(j.pending[0]); err != nil {
			return
		}
		j.pending = j.pending[1:]
	}
	if len(j.pending) == 0 {
		j.pending = nil
		j.opts.Health.Set("journal", resil.Healthy)
	}
}

// writeLocked appends one marshaled line, rotating first when the live
// segment is full or old enough. An fsync failure after a successful
// append is logged and degrades health but does not fail the write —
// retrying would append the line twice.
func (j *Journal) writeLocked(data []byte) error {
	if size := j.file.Size(); size > 0 {
		full := j.opts.MaxBytes > 0 && size+int64(len(data)) > j.opts.MaxBytes
		aged := j.opts.Retain > 0 && j.now().Sub(j.segOpened) >= j.segmentSpan()
		if full || aged {
			j.rotateLocked()
		}
	}
	err := j.file.Append(data)
	if errors.Is(err, durable.ErrNotSynced) {
		j.log.Warn("journal: fsync failed", "err", err)
		j.opts.Health.Set("journal", resil.Degraded)
		err = nil
	}
	if err == nil {
		j.delivered.Inc()
	}
	return err
}

// rotateLocked retires the live file as the segment path.<unix-seconds>
// (the rotation instant), starts a fresh one and prunes expired
// segments. The in-memory dedup index spans rotations, so rotation
// never forgets an ID while the process lives.
func (j *Journal) rotateLocked() {
	now := j.now()
	dst := fmt.Sprintf("%s.%d", j.opts.Path, now.Unix())
	if _, err := os.Stat(dst); err == nil {
		// Two rotations within one second: fall back to nanoseconds.
		dst = fmt.Sprintf("%s.%d", j.opts.Path, now.UnixNano())
	}
	if err := j.file.Rotate(dst); err != nil {
		j.log.Warn("journal: segment rotation failed", "err", err)
	}
	j.segOpened = now
	j.pruneLocked()
}

// Pending returns how many events are parked awaiting retry.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Close implements Sink: one final retry of parked events, then
// release the file. Events still parked after that are counted as
// dropped — they were never durable.
func (j *Journal) Close(context.Context) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.flushPendingLocked()
	if n := len(j.pending); n > 0 {
		j.drops.Add(int64(n))
		j.log.Warn("journal: closed with events still parked; lost", "events", n)
	}
	j.pending = nil
	j.closed = true
	return j.file.Close()
}
