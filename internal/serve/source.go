package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"

	"loopscope/internal/analytics"
	"sync"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
	"loopscope/internal/trace"
)

// SourceInfo is one source's live status as reported by /api/v1/sources.
type SourceInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Path     string `json:"path,omitempty"`
	Status   string `json:"status"`
	Link     string `json:"link,omitempty"`
	Records  int64  `json:"records"`
	Emitted  int    `json:"emitted"`
	LagBytes int64  `json:"lagBytes"`
	// Segment/Segments locate a dir source within its rotation
	// sequence (1-based; zero for other kinds), and LagSegments counts
	// rotated segments between it and the directory head.
	Segment     int    `json:"segment,omitempty"`
	Segments    int    `json:"segments,omitempty"`
	LagSegments int64  `json:"lagSegments,omitempty"`
	Restarts    int64  `json:"restarts"`
	LastErr     string `json:"lastError,omitempty"`
}

// sourceState is one live source: its session, its checkpoint position
// and its status. The mutex serializes Observe (and the synchronous
// sink publication inside it) with position updates and checkpoint
// snapshots, which is the whole resume correctness story: a position
// captured under the mutex never claims an emission the journal has
// not durably written.
type sourceState struct {
	d    *Daemon
	name string
	kind string // "tail", "dir" or "feed"
	path string // file, directory or listen address

	run func(ctx context.Context) error

	// flightShard fixes which recorder shard this source's sessions
	// record into (assigned at registration, stable across restarts).
	flightShard int

	mu       sync.Mutex
	sess     *core.Session
	cp       SourceCheckpoint
	link     string
	status   string
	lastErr  string
	lagBytes int64
	restarts int64
	idle     bool

	// dir-source position: 1-based index of the segment being
	// consumed, total segments seen, bytes in segments after the
	// current one, and bytes of segments fully consumed. posBytes is
	// the read offset within the current file (tail and dir).
	segIndex     int
	segCount     int
	lagSegments  int64
	laterBytes   int64
	segDoneBytes int64
	posBytes     int64

	// lastShed is the session's shed counters at the previous observe;
	// diffs feed the shed metrics so restarts don't re-count.
	lastShed core.ShedCounts

	recordsC     *obs.Counter
	lagG         *obs.Gauge
	lagSegsG     *obs.Gauge
	restartsC    *obs.Counter
	finalC       *obs.Counter
	truncC       *obs.Counter
	latencyH     *obs.Histogram
	shedStreamsC *obs.Counter
	shedPacketsC *obs.Counter

	// feed only
	listener net.Listener
}

// newSourceState wires a source into the daemon's metrics.
func (d *Daemon) newSourceState(name, kind, path string) *sourceState {
	m := d.cfg.Metrics
	return &sourceState{
		d: d, name: name, kind: kind, path: path,
		flightShard: len(d.sources),
		status:      "starting",
		cp:          SourceCheckpoint{Kind: kind, Path: path},
		recordsC:    m.Counter(obs.LabelMetric(obs.MetricServeSourceRecords, "source", name)),
		lagG:        m.Gauge(obs.LabelMetric(obs.MetricServeSourceLagBytes, "source", name)),
		lagSegsG:    m.Gauge(obs.LabelMetric(obs.MetricServeSourceLagSegments, "source", name)),
		restartsC:   m.Counter(obs.LabelMetric(obs.MetricServeSourceRestarts, "source", name)),
		finalC:      m.Counter(obs.LabelMetric(obs.MetricServeEventsFinal, "source", name)),
		truncC:      m.Counter(obs.LabelMetric(obs.MetricServeEventsTruncated, "source", name)),
		latencyH:    m.Histogram(obs.LabelMetric(obs.MetricServeDetectLatencyNs, "source", name), obs.DetectLatencyBounds),
		// Shed counters are per reason, shared across sources: the
		// governor's eviction pressure is a daemon-level signal.
		shedStreamsC: m.Counter(obs.LabelMetric(obs.MetricShed, "reason", "stream_cap")),
		shedPacketsC: m.Counter(obs.LabelMetric(obs.MetricShed, "reason", "admission")),
	}
}

// emit is the session callback: render and publish, synchronously, so
// that by the time Observe returns the event is journal-durable. It
// runs under s.mu (the session is only driven with the mutex held), so
// reading the session's high-water mark here is safe. With a flight
// recorder configured, the loop's decision trail is sealed under the
// event ID before publication, so /api/v1/trace/{id} can answer the
// moment the event is visible anywhere downstream.
func (s *sourceState) emit(se core.SessionEvent) {
	if se.Truncated {
		s.truncC.Inc()
	} else {
		s.finalC.Inc()
	}
	ev := newEvent(s.name, s.link, s.d.cfg.Vantage, se, time.Now())
	ev.Prov = ev.Prov.Stamp(provenance.HopDetected, provenance.Now())
	// Detection latency on the trace clock: how far the stream had
	// advanced past the loop's end before the detector could commit it.
	if lat := int64(s.sess.HighWater() - se.Loop.End); lat >= 0 {
		s.latencyH.Observe(lat)
	}
	if fr := s.d.cfg.Flight; fr != nil {
		margin := s.d.cfg.Detector.MergeWindow + 2*s.d.cfg.Detector.MaxReplicaGap
		tr := fr.Seal(ev.ID, se.Loop.Prefix, se.Loop.Start, se.Loop.End, margin)
		if !se.Truncated {
			s.d.trailLog.Write(tr)
		}
	}
	// The analytics feed keys on the event ID, so a resume that
	// re-emits this loop (at-least-once delivery) is suppressed by the
	// collector's seen-ID ring just as the journal suppresses it.
	s.d.cfg.Analytics.RecordLoop(s.name, analytics.ObsFromLoop(ev.ID, se.Loop))
	s.d.publish(ev)
}

// newSession replaces the source's session with a fresh one. Caller
// must hold s.mu.
func (s *sourceState) newSessionLocked() error {
	sess, err := core.NewSession(s.d.cfg.Detector, s.emit)
	if err != nil {
		return err
	}
	if fr := s.d.cfg.Flight; fr != nil {
		sess.SetFlight(fr.Shard(s.flightShard))
	}
	s.sess = sess
	s.lastShed = core.ShedCounts{}
	return nil
}

// recordShedLocked diffs the session's governor counters against the
// last observation and feeds the deltas into the shed metrics. Caller
// must hold s.mu with a live session.
func (s *sourceState) recordShedLocked() {
	shed := s.sess.Shed()
	if d := shed.Streams - s.lastShed.Streams; d > 0 {
		s.shedStreamsC.Add(d)
	}
	if d := shed.Packets - s.lastShed.Packets; d > 0 {
		s.shedPacketsC.Add(d)
	}
	s.lastShed = shed
}

// observe feeds one record and refreshes the checkpoint position and
// the byte lag (zero for a feed), all in one critical section (see the
// type comment for why that ordering is the resume invariant). Besides
// errTestCrash (the in-process kill hook tests use), an injected
// source-read fault surfaces here — before the record touches the
// session or the checkpoint, so the supervisor's restart re-reads it
// instead of losing it.
func (s *sourceState) observe(rec trace.Record, records, offset, lag int64) error {
	if err := resil.Inject(s.d.cfg.FaultInjector, resil.OpSourceRead); err != nil {
		return err
	}
	s.mu.Lock()
	s.sess.Observe(rec)
	s.recordShedLocked()
	s.cp.Records = records
	s.cp.Offset = offset
	s.cp.Emitted = s.sess.Emitted()
	s.cp.HighWaterNs = int64(s.sess.HighWater())
	s.posBytes = offset
	s.lagBytes = lag
	s.lagG.Set(lag)
	s.idle = false
	s.recordsC.Inc()
	s.mu.Unlock()
	if s.d.testCrash != nil && s.d.testCrash(s.name, records) {
		return errTestCrash
	}
	return nil
}

// drain flushes the session's open state as truncated events (graceful
// shutdown). Safe to call on a source whose session already ended.
func (s *sourceState) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess != nil {
		s.sess.Drain()
	}
	s.status = "stopped"
}

// complete finishes the session normally (natural end of stream) and
// resets position for whatever the runner does next. Caller must hold
// s.mu.
func (s *sourceState) completeLocked() {
	if s.sess != nil {
		s.sess.Complete()
		s.sess = nil
	}
}

// snapshot returns the source's checkpoint entry. The position was
// maintained under the mutex after each Observe, so the snapshot is
// always consistent with the journal.
func (s *sourceState) snapshot() SourceCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// info renders the source for /api/v1/sources.
func (s *sourceState) info() SourceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := SourceInfo{
		Name: s.name, Kind: s.kind, Path: s.path,
		Status: s.status, Link: s.link,
		Records: s.cp.Records, LagBytes: s.lagBytes,
		Segment: s.segIndex, Segments: s.segCount,
		LagSegments: s.lagSegments,
		Restarts:    s.restarts, LastErr: s.lastErr,
	}
	if s.sess != nil {
		inf.Emitted = s.sess.Emitted()
		inf.Records = s.sess.Records()
	}
	return inf
}

func (s *sourceState) setStatus(st string) {
	s.mu.Lock()
	s.status = st
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// Tail source: follow one growing native trace file.

// runTail is the tail source runner: open the file, resume from the
// checkpoint when it still describes this file, then follow appends
// until cancelled. Rotation and truncation drain the session
// (truncated events) and start over on the new file contents.
func (s *sourceState) runTail(ctx context.Context) error {
	opts := trace.TailOptions{Poll: s.d.cfg.TailPoll, PollMax: s.d.cfg.TailPollMax}
	if s.d.cfg.ExitIdle > 0 {
		opts.IdleTimeout = s.d.cfg.ExitIdle
	}
	tr, err := trace.OpenTail(s.path, opts)
	if err != nil {
		return err
	}
	defer tr.Close()

	s.mu.Lock()
	resume := s.cp
	if err := s.newSessionLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.status = "starting"
	s.mu.Unlock()

	// Resume: if the checkpoint describes this very file, re-feed the
	// consumed prefix with emission suppression armed. Any surprise —
	// decode error, fewer records than claimed, offset mismatch —
	// falls back to a fresh full read; the journal's dedup absorbs the
	// re-emissions, so fresh is always safe, just noisier.
	if resume.Records > 0 && resume.FileID != "" && resume.FileID == tr.FileID() {
		s.setStatus("replaying")
		s.mu.Lock()
		s.sess.SetReplay(resume.Emitted)
		s.mu.Unlock()
		ok, err := s.replayTail(ctx, tr, resume)
		if err != nil {
			return err
		}
		if !ok {
			// Positions disagreed: rebuild from scratch.
			tr.Close()
			if tr, err = trace.OpenTail(s.path, opts); err != nil {
				return err
			}
			defer tr.Close()
			s.mu.Lock()
			if err := s.newSessionLocked(); err != nil {
				s.mu.Unlock()
				return err
			}
			s.cp = SourceCheckpoint{Kind: s.kind, Path: s.path}
			s.mu.Unlock()
		}
	}

	s.setStatus("live")
	s.mu.Lock()
	s.cp.FileID = tr.FileID()
	s.mu.Unlock()

	for {
		rec, err := tr.Next(ctx)
		switch {
		case err == nil:
			off := tr.Offset()
			if err := s.observe(rec, tr.Records(), off, tr.Size()-off); err != nil {
				return err
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ctx.Err()
		case errors.Is(err, trace.ErrTailIdle):
			s.markIdle()
			// Keep following: idle-exit is the daemon's decision, made
			// across all sources; this one just reports.
		case errors.Is(err, trace.ErrTailRotated), errors.Is(err, trace.ErrTailTruncated):
			// The file this session described is gone. Flush what the
			// detector was still holding as truncated evidence, then
			// restart on the new file via the supervisor.
			s.d.log.Info("tail file replaced; restarting on new file", "source", s.name, "err", err)
			s.mu.Lock()
			if s.sess != nil {
				s.sess.Drain()
				s.sess = nil
			}
			s.cp = SourceCheckpoint{Kind: s.kind, Path: s.path}
			s.mu.Unlock()
			return errRestart
		default:
			return err
		}
	}
}

// replayTail re-feeds the checkpointed record prefix. Returns ok=false
// when the file's contents do not match the checkpoint's claim; the
// caller then starts over with a fresh session, which is always safe —
// the journal's ID dedup absorbs re-emissions, whereas stale replay
// state would lose events.
func (s *sourceState) replayTail(ctx context.Context, tr *trace.TailReader, resume SourceCheckpoint) (bool, error) {
	// The claimed prefix must already be on disk in full. An OS crash
	// can lose the file's tail while keeping the checkpoint (journal
	// writes contemplate exactly that); without this check the loop
	// below would wait for the missing bytes forever — with ExitIdle=0
	// (run forever) there is no idle timeout to break it.
	if st, err := os.Stat(s.path); err != nil || st.Size() < resume.Offset {
		size := int64(-1)
		if err == nil {
			size = st.Size()
		}
		s.d.log.Warn("checkpoint ahead of file; starting fresh", "source", s.name, "fileBytes", size, "checkpointOffset", resume.Offset)
		return false, nil
	}
	// Every byte the replay needs exists, so any idle wait means the
	// content disagrees with the checkpoint (e.g. a torn record inside
	// the claimed prefix). Bound the wait instead of hanging in
	// "replaying" and misreading later appends as replay.
	idle := 2 * time.Second
	if p := 2 * s.d.cfg.TailPoll; p > idle {
		idle = p
	}
	prevIdle := tr.SetIdleTimeout(idle)
	defer tr.SetIdleTimeout(prevIdle)

	for tr.Records() < resume.Records && tr.Offset() < resume.Offset {
		rec, err := tr.Next(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return false, ctx.Err()
			}
			s.d.log.Warn("replay failed; starting fresh", "source", s.name, "records", tr.Records(), "claimed", resume.Records, "err", err)
			return false, nil
		}
		s.mu.Lock()
		s.sess.Observe(rec)
		s.mu.Unlock()
	}
	if tr.Records() != resume.Records || tr.Offset() != resume.Offset {
		s.d.log.Warn("replay position disagrees with checkpoint; starting fresh", "source", s.name,
			"records", tr.Records(), "offset", tr.Offset(), "claimedRecords", resume.Records, "claimedOffset", resume.Offset)
		return false, nil
	}
	s.mu.Lock()
	leftover := s.sess.ClearReplay()
	s.cp = resume
	s.cp.Emitted = s.sess.Emitted()
	s.mu.Unlock()
	if leftover > 0 {
		// Should not happen (the detector is deterministic over the
		// prefix), but leftover suppression would permanently swallow
		// the next new events; clearing risks only dedup-able repeats.
		s.d.log.Warn("replay ended with suppressed emissions pending; cleared", "source", s.name, "pending", leftover)
	}
	return true, nil
}

// ---------------------------------------------------------------------
// Dir source: process a rotated-capture directory in segment order.

// runDir consumes trace segments from a directory in lexical filename
// order as they appear, stitching them into one detection session by
// rebasing each segment's record clock onto a shared timeline (the
// segments' absolute start times). The newest segment is tailed live;
// when a newer one appears the current segment is read to its end and
// the runner moves on.
//
// Resume after a restart replays only the current segment: detector
// state that straddled a segment boundary is rebuilt from the current
// segment alone, so delivery across rotation is at-least-once, with
// the journal deduplicating what is re-derived. Replayed emissions are
// re-published, never suppressed: the checkpointed emission count is
// cumulative across every segment this source has consumed, while the
// fresh session re-derives loops from the current segment only, so a
// SetReplay with that count would leave suppression armed after the
// replay and silently swallow that many genuinely new events.
// Duplicates are safe (event IDs are deterministic and the journal
// dedups); loss is not.
func (s *sourceState) runDir(ctx context.Context) error {
	poll := s.d.cfg.TailPoll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}

	s.mu.Lock()
	resume := s.cp
	if resume.File != "" {
		if _, err := os.Stat(filepath.Join(s.path, resume.File)); err != nil {
			// The checkpointed segment is gone (rotation cleaned it
			// up): nothing to replay, start fresh on what remains.
			s.d.log.Info("checkpointed segment missing; starting fresh", "source", s.name, "segment", resume.File)
			resume = SourceCheckpoint{Kind: s.kind, Path: s.path}
			s.cp = resume
		}
	}
	if err := s.newSessionLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	// lastDone is the lexically greatest segment fully consumed; the
	// next segment to process is the smallest one after it. baseWall
	// anchors the shared timeline: every segment's record clock is
	// shifted by (segment start − baseWall).
	var (
		lastDone string
		baseWall time.Time
		baseSet  bool
	)
	current := resume.File // "" when starting fresh

	idleSince := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if current == "" {
			segs, err := s.listSegments()
			if err != nil {
				return err
			}
			for _, f := range segs {
				if f > lastDone {
					current = f
					break
				}
			}
			if current == "" {
				if !s.waitPoll(ctx, poll, &idleSince) {
					return ctx.Err()
				}
				continue
			}
		}
		idleSince = time.Now()
		err := s.consumeSegment(ctx, current, &baseWall, &baseSet, resume)
		if err != nil {
			return err
		}
		resume = SourceCheckpoint{} // applies to the first segment only
		lastDone, current = current, ""
	}
}

// refreshDirLag recomputes the dir source's position within its
// segment sequence — segment i of N, rotated segments behind the
// directory head, and the bytes still unread across the current and
// all later segments — and reports whether a segment lexically after
// seg exists (the old hasNewerSegment check, folded in so idle polling
// lists the directory once).
func (s *sourceState) refreshDirLag(seg string, tr *trace.TailReader) bool {
	segs, err := s.listSegments()
	if err != nil {
		return false
	}
	idx, later, hasNewer := -1, int64(0), false
	for i, f := range segs {
		if f == seg {
			idx = i
		}
		if f > seg {
			hasNewer = true
			if st, err := os.Stat(filepath.Join(s.path, f)); err == nil {
				later += st.Size()
			}
		}
	}
	s.mu.Lock()
	if idx >= 0 {
		s.segIndex, s.segCount = idx+1, len(segs)
		s.lagSegments = int64(len(segs) - 1 - idx)
	}
	s.laterBytes = later
	s.lagBytes = (tr.Size() - tr.Offset()) + later
	s.lagG.Set(s.lagBytes)
	s.lagSegsG.Set(s.lagSegments)
	s.mu.Unlock()
	return hasNewer
}

// segmentDone retires a fully consumed segment from the position
// accounting: its bytes move into the done total so Progress keeps a
// monotone offset across rotations.
func (s *sourceState) segmentDone(tr *trace.TailReader) {
	s.mu.Lock()
	s.segDoneBytes += tr.Offset()
	s.posBytes = 0
	s.mu.Unlock()
}

// listSegments returns the directory's trace files in lexical order.
func (s *sourceState) listSegments() ([]string, error) {
	ents, err := os.ReadDir(s.path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if s.d.cfg.DirGlob != "" {
			if ok, _ := filepath.Match(s.d.cfg.DirGlob, name); !ok {
				continue
			}
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// consumeSegment tails one segment until it is finished: a lexically
// later segment exists and this one has been read to its current end
// (the writer has moved on), or the daemon is cancelled. The newest
// segment is therefore followed live, record by record, and released
// only when rotation produces a successor.
func (s *sourceState) consumeSegment(ctx context.Context, seg string, baseWall *time.Time, baseSet *bool, resume SourceCheckpoint) error {
	full := filepath.Join(s.path, seg)
	poll := s.d.cfg.TailPoll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	tr, err := trace.OpenTail(full, trace.TailOptions{Poll: poll, IdleTimeout: poll * 2})
	if err != nil {
		return err
	}
	defer tr.Close()
	s.refreshDirLag(seg, tr)

	var (
		segBase    time.Duration // shift applied to this segment's clock
		segBaseSet bool
	)
	replayTarget := int64(0)
	if resume.File == seg && resume.Records > 0 {
		replayTarget = resume.Records
		segBase = time.Duration(resume.TimeBaseNs)
		segBaseSet = true
	}

	var idleSince time.Time // first ErrTailIdle since the last record: no clock read per record
	s.setStatus("live")
	for {
		rec, err := tr.Next(ctx)
		switch {
		case err == nil:
			// Fault seam before the record touches the session: the
			// restart replays this segment and re-reads it.
			if ierr := resil.Inject(s.d.cfg.FaultInjector, resil.OpSourceRead); ierr != nil {
				return ierr
			}
			idleSince = time.Time{}
			if !segBaseSet {
				// Header is available once the first record decoded:
				// place this segment on the shared timeline.
				if !*baseSet {
					*baseWall = tr.Meta().Start
					*baseSet = true
				} else if d := tr.Meta().Start.Sub(*baseWall); d > 0 {
					segBase = d
				}
				segBaseSet = true
			} else if !*baseSet {
				// Resumed segment: recover the anchor so later
				// segments rebase consistently.
				*baseWall = tr.Meta().Start.Add(-segBase)
				*baseSet = true
			}
			rec.Time += segBase
			s.mu.Lock()
			if hw := s.sess.HighWater(); rec.Time < hw {
				// Clock skew across segments: clamp rather than crash.
				rec.Time = hw
			}
			if replayTarget > 0 && tr.Records() <= replayTarget {
				// Re-feeding the checkpointed prefix of this segment:
				// observe without advancing the checkpoint position.
				// Loops re-derived here are re-published under their
				// original deterministic IDs and land as journal
				// duplicates (see runDir: suppression would lose
				// events instead).
				s.sess.Observe(rec)
				if tr.Records() == replayTarget && tr.Offset() != resume.Offset {
					s.d.log.Warn("segment replay offset disagrees with checkpoint (continuing; journal dedups)",
						"source", s.name, "segment", seg, "offset", tr.Offset(), "claimed", resume.Offset)
				}
				s.mu.Unlock()
				continue
			}
			s.sess.Observe(rec)
			s.recordShedLocked()
			s.cp.File = seg
			s.cp.Records = tr.Records()
			s.cp.Offset = tr.Offset()
			s.cp.Emitted = s.sess.Emitted()
			s.cp.HighWaterNs = int64(s.sess.HighWater())
			s.cp.TimeBaseNs = int64(segBase)
			s.posBytes = tr.Offset()
			s.lagBytes = (tr.Size() - tr.Offset()) + s.laterBytes
			s.lagG.Set(s.lagBytes)
			s.idle = false
			s.recordsC.Inc()
			n := s.cp.Records
			s.mu.Unlock()
			if s.d.testCrash != nil && s.d.testCrash(s.name, n) {
				return errTestCrash
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return ctx.Err()
		case errors.Is(err, trace.ErrTailIdle):
			// Caught up with the segment's current end. If rotation
			// has produced a successor the writer is done with this
			// file; otherwise keep following it. The lag refresh doubles
			// as the newer-segment check (one directory listing).
			if s.refreshDirLag(seg, tr) {
				s.segmentDone(tr)
				return nil
			}
			if idleSince.IsZero() {
				idleSince = time.Now()
			}
			s.markIdleMaybe(&idleSince)
		case errors.Is(err, trace.ErrTailRotated), errors.Is(err, trace.ErrTailTruncated):
			s.d.log.Info("segment ended mid-read", "source", s.name, "segment", seg, "err", err)
			s.segmentDone(tr)
			return nil
		default:
			return err
		}
	}
}

// waitPoll sleeps one poll interval; reports false on cancellation.
func (s *sourceState) waitPoll(ctx context.Context, poll time.Duration, idleSince *time.Time) bool {
	s.markIdleMaybe(idleSince)
	select {
	case <-ctx.Done():
		return false
	case <-time.After(poll):
		return true
	}
}

// markIdleMaybe flips the source to idle once ExitIdle has elapsed with
// no progress.
func (s *sourceState) markIdleMaybe(idleSince *time.Time) {
	if s.d.cfg.ExitIdle > 0 && time.Since(*idleSince) >= s.d.cfg.ExitIdle {
		s.markIdle()
	}
}

// markIdle reports the source idle to the daemon (once per idle spell).
func (s *sourceState) markIdle() {
	s.mu.Lock()
	was := s.idle
	s.idle = true
	s.status = "idle"
	s.mu.Unlock()
	if !was {
		s.d.sourceIdle()
	}
}

// ---------------------------------------------------------------------
// Feed source: native trace streams over TCP or a unix socket.

// runFeed accepts connections on the source's listener. Each
// connection carries one native-format trace stream (header +
// length-prefixed records) and gets its own detection session, which
// is Completed — finals, not truncated — when the peer closes cleanly.
// Feed positions are not resumable (the bytes are gone with the
// socket), so feed checkpoints record progress only.
func (s *sourceState) runFeed(ctx context.Context) error {
	ln := s.listener
	// Unblock Accept and any in-flight conn read on cancellation.
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	s.setStatus("listening")
	for {
		if s.d.cfg.ExitIdle > 0 {
			if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				d.SetDeadline(time.Now().Add(s.d.cfg.ExitIdle))
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.markIdle()
				continue
			}
			return err
		}
		s.mu.Lock()
		s.idle = false
		s.mu.Unlock()
		if err := s.serveConn(ctx, conn); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			s.d.log.Warn("feed connection failed", "source", s.name, "err", err)
		}
		s.setStatus("listening")
	}
}

// serveConn consumes one feed connection to EOF.
func (s *sourceState) serveConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	src, _, err := trace.OpenStream(conn, trace.OpenOptions{})
	if err != nil {
		return fmt.Errorf("feed header: %w", err)
	}
	s.mu.Lock()
	if err := s.newSessionLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.link = src.Meta().Link
	s.status = "live"
	s.cp = SourceCheckpoint{Kind: s.kind, Path: s.path}
	s.mu.Unlock()

	var n int64
	for {
		rec, err := src.Next()
		if err != nil {
			s.mu.Lock()
			if errors.Is(err, io.EOF) {
				// Clean end of stream: the loops still open are
				// complete evidence.
				s.completeLocked()
				s.mu.Unlock()
				return nil
			}
			// Mid-stream failure: the stream was cut, so flush open
			// state as truncated.
			if s.sess != nil {
				s.sess.Drain()
				s.sess = nil
			}
			s.mu.Unlock()
			return err
		}
		n++
		if err := s.observe(rec, n, 0, 0); err != nil {
			return err
		}
	}
}

// Progress reports bytes consumed and total bytes known across all
// file-backed sources, for the progress reporter's percentage/ETA. A
// dir source's total covers every remaining segment, not just the open
// file, so the ETA spans the whole backlog instead of resetting at
// each rotation.
func (d *Daemon) Progress() (offset, size int64) {
	for _, s := range d.sources {
		s.mu.Lock()
		done := s.segDoneBytes + s.posBytes
		offset += done
		size += done + s.lagBytes
		s.mu.Unlock()
	}
	return offset, size
}

// Segments reports dir-source rotation position summed across sources:
// (current segment index, total segments seen). Non-dir sources
// contribute nothing.
func (d *Daemon) Segments() (current, total int) {
	for _, s := range d.sources {
		s.mu.Lock()
		current += s.segIndex
		total += s.segCount
		s.mu.Unlock()
	}
	return current, total
}
