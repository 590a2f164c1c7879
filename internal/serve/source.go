package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
	"loopscope/internal/trace"
	"loopscope/pkg/loopscope"
)

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

	// anchor is the session's timeline origin (see take).
	anchor   time.Time
	anchored bool

	// Position for /api/v1/sources: the open segment's 1-based index
	// among the segments seen (dir), and the rotated segments and bytes
	// after it.
	segIndex    int
	segCount    int
	lagSegments int64
	laterBytes  int64

	// lastShed is the session's shed counters at the previous record;
	// diffs feed the shed metrics so restarts don't re-count.
	lastShed core.ShedCounts

	// replayTo, while a resumed run re-feeds from the checkpoint's
	// restart point, is the checkpoint: records before its position go
	// to the session and nothing else. Only the runner writes it.
	replayTo *SourceCheckpoint
	// marks are where a later resume could re-read from, markEvery
	// records apart at the least (see take), from the last restart point
	// on.
	marks []mark

	// unpublished counts the live records taken since recordsC and lagG
	// were last set (see publish).
	unpublished  int64
	recordsC     *obs.Counter
	lagG         *obs.Gauge
	lagSegsG     *obs.Gauge
	restartsC    *obs.Counter
	finalC       *obs.Counter
	truncC       *obs.Counter
	latencyH     *obs.Histogram
	shedStreamsC *obs.Counter
	shedPacketsC *obs.Counter
	replayedC    *obs.Counter

	listener net.Listener // feed only
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
		replayedC:    m.Counter(obs.LabelMetric(obs.MetricServeRecordsReplayed, "source", name)),
	}
}

// emit is the session callback, run under s.mu: render and publish
// synchronously, so the event is journal-durable when Observe returns,
// with its flight trail sealed under the event ID first. Before a
// resume reaches the checkpointed position it publishes nothing: that
// was delivered before the restart. Finals are numbered on from the
// checkpoint's count.
func (s *sourceState) emit(se core.SessionEvent) {
	if s.replayTo != nil {
		return
	}
	if se.Truncated {
		s.truncC.Inc()
	} else {
		s.finalC.Inc()
		se.Seq = s.cp.Emitted
		s.cp.Emitted++
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
		// From this source's shard only: the shards split sources, not
		// prefixes, and another source's loop can share prefix and times.
		tr := fr.Shard(s.flightShard).Seal(ev.ID, se.Loop.Prefix, se.Loop.Start, se.Loop.End, margin)
		if !se.Truncated {
			s.d.trailLog.write(tr)
		}
	}
	// The analytics feed keys on the event ID, so a resume that
	// re-emits this loop (at-least-once delivery) is suppressed by the
	// collector's seen-ID ring just as the journal suppresses it.
	s.d.cfg.Analytics.RecordLoop(s.name, analytics.ObsFromLoop(ev.ID, se.Loop))
	s.d.publish(ev)
}

// drain flushes the session's open state as truncated events and
// closes a feed's listener (graceful shutdown), keeping the restart
// point taken before the flush. Safe to call on a source whose session
// already ended.
func (s *sourceState) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess != nil {
		s.settle()
		s.sess.Drain()
		s.sess = nil
	}
	if s.listener != nil {
		s.listener.Close()
	}
	s.status = "stopped"
}

// snapshot returns the source's checkpoint entry, consistent with the
// journal because it is only ever moved under the mutex.
func (s *sourceState) snapshot() SourceCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settle()
	return s.cp
}

// mark is a record a resume can re-read from: its index in the session
// and where it is.
type mark struct {
	idx int64
	at  restartPoint
}

// markEvery bounds how many records a resume re-reads beyond the
// restart point.
const markEvery = 256

// settle puts the session's restart point, rounded down to a mark, into
// the checkpoint and drops the marks before it, which no later restart
// point can reach. Not while replaying: the checkpoint's own still
// stands.
func (s *sourceState) settle() {
	if s.sess == nil || s.replayTo != nil || len(s.marks) == 0 {
		return
	}
	markAt := func(i int64) int {
		return sort.Search(len(s.marks), func(j int) bool { return s.marks[j].idx > i }) - 1
	}
	r, exact := s.sess.RestartPoint(func(i int64) int64 { return s.marks[markAt(i)].idx })
	s.marks = s.marks[markAt(r):]
	at := s.marks[0].at
	at.Shed = !exact
	s.cp.Restart = &at
}

// info renders the source for /api/v1/sources. Its records are the
// checkpointed position in the current file: a resumed session counts
// from its restart point, not from the file's start.
func (s *sourceState) info() loopscope.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return loopscope.Source{
		Name: s.name, Kind: s.kind, Path: s.path,
		Status: s.status, Link: s.link,
		Records: s.cp.Records, Emitted: s.cp.Emitted, LagBytes: s.lagBytes,
		Segment: s.segIndex, Segments: s.segCount,
		LagSegments: s.lagSegments,
		Restarts:    s.restarts, LastErr: s.lastErr,
	}
}

// ---------------------------------------------------------------------
// One consume loop for every kind: a tailed file is a directory of one
// segment that never completes, a feed connection a segment with no
// offset to resume. A kind hands the loop units and says what ends one.

// unit is one stretch of a source that a checkpoint position points
// into: the tailed file, a directory segment, a feed connection.
type unit struct {
	r    reader
	path string        // the file r follows; "" for a connection
	idle time.Duration // r reports ErrTailIdle after this long
	n    int64         // records taken from r
	// file and fileID go into the checkpoint when the unit is placed.
	file, fileID, link string
	base               time.Duration // added to every record time
	placed             bool          // base is final
	at                 int64         // where the next record starts
	// caughtUp, if set, is asked whenever r goes idle: true ends the
	// unit. end settles what stopped r (for a file, only its rotation or
	// truncation; other errors end the run): nil reads the next unit.
	caughtUp func(*unit) bool
	end      func(*unit, error) error
}

// reader is a *trace.TailReader or a feed's connReader. Its records
// are borrowed: take keeps nothing of one past the next read.
type reader interface {
	Borrow(context.Context, *trace.Record) error
	Meta() trace.Meta
	Offset() int64
	Size() int64
	Close() error
}

// consume is every source's runner: each run starts a new session and
// reads the units next hands it until an error, which goes to the
// supervisor. Its one resume rule, for every file-backed kind: a run
// starts at the checkpoint's restart point and re-feeds up to its
// position in silence (replayTo; the kinds, resume and take do the
// rest). A checkpoint without a restart point starts fresh.
func (s *sourceState) consume(ctx context.Context, next func(context.Context) (*unit, error)) error {
	cp := s.snapshot()
	s.mu.Lock()
	s.sess, s.replayTo = nil, nil
	switch {
	case cp.Records == 0 || s.kind == "feed":
	case cp.Restart == nil:
		s.startFresh("no_restart_point")
	case cp.Restart.Shed:
		s.startFresh("governor_shed_since_restart") // and re-feed all the same
		fallthrough
	default:
		s.replayTo = &cp
	}
	s.mu.Unlock()
	for {
		u, err := next(ctx)
		if err != nil {
			return err
		}
		err = s.read(ctx, u)
		u.r.Close()
		if err != nil {
			return err
		}
	}
}

// startFresh counts and logs a resume that cannot rebuild the
// detector's state exactly: it starts fresh, or, after the governor
// shed, re-feeds all the same. Starting fresh is always safe: the
// journal drops the events it already holds; stale state would lose
// them.
func (s *sourceState) startFresh(why string, args ...any) {
	s.d.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeResumeFresh, "reason", why)).Inc()
	s.d.log.Warn("resume cannot rebuild the detector exactly", append([]any{"source", s.name, "reason", why}, args...)...)
}

// read consumes one unit, resumed if the run is replaying, record by
// record until it ends. The source is marked idle ExitIdle after its
// last record, at the reader's next idle report.
func (s *sourceState) read(ctx context.Context, u *unit) error {
	s.start(u)
	if err := s.resume(u); err != nil {
		return err
	}
	if u.path == "" {
		defer s.publishOnTimer()()
	}
	var idleSince time.Time
	var rec trace.Record
	for {
		err := u.r.Borrow(ctx, &rec)
		if err == nil {
			idleSince = time.Time{}
			if err := s.take(u, rec); err != nil {
				return err
			}
			continue
		}
		s.mu.Lock()
		s.publish()
		s.mu.Unlock()
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case s.replayTo != nil && (u.file == s.replayTo.File || !errors.Is(err, trace.ErrTailIdle)):
			return s.fresh("replay_read_error", "file", u.path, "records", u.n, "err", err)
		case errors.Is(err, trace.ErrTailIdle):
			if u.caughtUp != nil && u.caughtUp(u) {
				return nil
			}
			if idleSince.IsZero() {
				idleSince = time.Now().Add(-u.idle)
			}
			s.markIdle(idleSince)
		case u.path != "" && !errors.Is(err, trace.ErrTailRotated) && !errors.Is(err, trace.ErrTailTruncated):
			return err
		default:
			return u.end(u, err)
		}
	}
}

// start puts u on the source's session, a new one if there is none; a
// new session's position is zero unless the run replays.
func (s *sourceState) start(u *unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess == nil {
		s.sess, _ = core.NewSession(s.d.cfg.Detector, s.emit) // New validated the config
		s.sess.SetFlight(s.d.cfg.Flight.Shard(s.flightShard))
		s.lastShed, s.anchored, s.marks = core.ShedCounts{}, false, nil
		if s.replayTo == nil {
			s.cp = SourceCheckpoint{Kind: s.kind, Path: s.path}
		}
	}
	s.link, s.status, s.idle = u.link, "live", false
	if s.replayTo != nil {
		s.status = "replaying"
	}
}

// resume places a unit of a resumed run. The restart point's unit
// starts there. The unit holding the checkpointed position must hold
// all of it (an OS crash can lose a file's tail and keep the
// checkpoint), and its reader gives up after a bounded idle wait, since
// waiting for bytes the checkpoint claims means the file disagrees.
func (s *sourceState) resume(u *unit) error {
	t := s.replayTo
	if t != nil && u.file == t.Restart.File {
		u.r.(*trace.TailReader).StartAt(t.Restart.Offset, t.Restart.Records)
		u.n, u.at, u.base = t.Restart.Records, t.Restart.Offset, time.Duration(t.Restart.TimeBaseNs)
	}
	if t == nil || u.file != t.File {
		return nil
	}
	if st, err := os.Stat(u.path); err != nil || st.Size() < t.Offset {
		return s.fresh("checkpoint_ahead_of_file", "file", u.path, "err", err)
	}
	u.r.(*trace.TailReader).SetIdleTimeout(max(2*time.Second, 2*s.d.cfg.TailPoll))
	return s.replayEnd(u)
}

// replayEnd ends the replay once u stands at the checkpointed record
// count. The offset must agree too, or the file is not the one
// checkpointed. The checkpoint entry stands as it was loaded, Emitted
// included.
func (s *sourceState) replayEnd(u *unit) error {
	switch t := s.replayTo; {
	case u.file != t.File || u.n != t.Records:
		return nil
	case u.at != t.Offset:
		return s.fresh("position_disagrees", "file", u.path, "records", u.n, "offset", u.at)
	}
	u.r.(*trace.TailReader).SetIdleTimeout(u.idle)
	s.stopReplay()
	return nil
}

// stopReplay makes whatever the run reads next live.
func (s *sourceState) stopReplay() {
	s.mu.Lock()
	s.replayTo, s.status = nil, "live"
	s.mu.Unlock()
}

// fresh gives up a resume that disagrees with the files: the source
// restarts at once without the checkpoint, so its next run reads from
// the start (a dir source, from its first segment), publishing
// everything.
func (s *sourceState) fresh(why string, args ...any) error {
	s.startFresh(why, args...)
	s.mu.Lock()
	s.sess, s.replayTo, s.cp = nil, nil, SourceCheckpoint{Kind: s.kind, Path: s.path}
	s.mu.Unlock()
	return errRestart
}

// take observes one record of u, after the fault seam (a restart
// re-reads the record it refuses). The session's first unit anchors its
// timeline, later ones shift by their start's distance from it, and no
// record goes below the high water: no kind hands the detector a
// backwards step. A record a later resume could re-read from is
// marked: the first, then one markEvery records on, stamped later than
// the high water (a restart point's time holds no earlier record). A
// feed's marks are never re-read, but settling on them keeps what the
// session tracks bounded. A live record moves the checkpoint, lag and
// metrics in the same critical section (see sourceState); a replayed
// one moves nothing until the replay reaches the checkpointed position.
func (s *sourceState) take(u *unit, rec trace.Record) error {
	if err := resil.Inject(s.d.cfg.FaultInjector, resil.OpSourceRead); err != nil {
		return err
	}
	u.n++
	s.mu.Lock()
	if !u.placed {
		if start := u.r.Meta().Start; !s.anchored {
			s.anchor, s.anchored = start.Add(-u.base), true
		} else {
			u.base = max(start.Sub(s.anchor), 0)
		}
		u.placed = true
		if s.replayTo == nil {
			s.cp.File, s.cp.FileID, s.cp.TimeBaseNs = u.file, u.fileID, int64(u.base)
		}
	}
	rec.Time = max(rec.Time+u.base, s.sess.HighWater())
	if i := s.sess.Records(); i == 0 || i >= s.marks[len(s.marks)-1].idx+markEvery && rec.Time > s.sess.HighWater() {
		s.marks = append(s.marks, mark{i, restartPoint{File: u.file, Records: u.n - 1, Offset: u.at, TimeBaseNs: int64(u.base)}})
	}
	s.sess.Observe(rec)
	u.at = u.r.Offset()
	if s.replayTo != nil {
		s.replayedC.Inc()
		s.mu.Unlock()
		return s.replayEnd(u)
	}
	if shed := s.sess.Shed(); shed != s.lastShed {
		s.shedStreamsC.Add(shed.Streams - s.lastShed.Streams)
		s.shedPacketsC.Add(shed.Packets - s.lastShed.Packets)
		s.lastShed = shed
	}
	s.cp.Records, s.cp.Offset = u.n, u.at
	s.cp.HighWaterNs = int64(s.sess.HighWater())
	s.lagBytes = u.r.Size() - u.at + s.laterBytes
	s.idle = false
	if s.unpublished++; s.unpublished == publishEvery || s.lagBytes == 0 && u.path != "" {
		s.publish()
	}
	s.mu.Unlock()
	if s.d.testCrash != nil && s.d.testCrash(s.name, u.n) {
		return errTestCrash
	}
	return nil
}

// publishEvery is how many live records take counts privately between
// updates of the source's records counter and lag gauge, as the ingest
// tap (trace.File) does: a live reader of /metrics lags the source by
// fewer than this many records while it delivers. take also publishes
// when a file-backed unit has caught up, the one point read sees before
// its reader waits, and read after every read error, so an idle or
// stopped source reads exact. A feed connection waits inside Borrow,
// where read cannot see it, so a feed unit also publishes every
// feedPublish while open. (What a failed take leaves unpublished goes
// out with the next run's.)
const (
	publishEvery = 256
	feedPublish  = time.Second
)

// publish sets the records counter and lag gauge from what take
// counted. The caller holds s.mu.
func (s *sourceState) publish() {
	s.recordsC.Add(s.unpublished)
	s.unpublished = 0
	s.lagG.Set(s.lagBytes)
}

// publishOnTimer publishes what take counted every feedPublish, until
// the returned stop is called; stop returns once the timer's goroutine
// has.
func (s *sourceState) publishOnTimer() (stop func()) {
	tick, quit, exited := time.NewTicker(feedPublish), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				s.mu.Lock()
				s.publish()
				s.mu.Unlock()
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// openTail opens a file-backed reader under the daemon's poll policy.
func (s *sourceState) openTail(path string, idle time.Duration) (*trace.TailReader, error) {
	return trace.OpenTail(path, trace.TailOptions{Poll: s.d.cfg.TailPoll, PollMax: s.d.cfg.TailPollMax, IdleTimeout: idle})
}

// markIdle reports the source idle to the daemon, once per idle spell,
// when ExitIdle has passed since the spell began.
func (s *sourceState) markIdle(since time.Time) {
	if s.d.cfg.ExitIdle <= 0 || time.Since(since) < s.d.cfg.ExitIdle {
		return
	}
	s.mu.Lock()
	was := s.idle
	s.idle = true
	s.status = "idle"
	s.mu.Unlock()
	if !was {
		s.d.sourceIdle()
	}
}

// tailUnit opens the tailed file, from the restart point when the
// checkpoint names its FileID. Its idle timeout is ExitIdle itself, so
// the source is marked idle exactly ExitIdle after its last record.
func (s *sourceState) tailUnit(context.Context) (*unit, error) {
	tr, err := s.openTail(s.path, s.d.cfg.ExitIdle)
	if err != nil {
		return nil, err
	}
	u := &unit{r: tr, path: s.path, idle: s.d.cfg.ExitIdle, fileID: tr.FileID(), end: s.tailEnd}
	if t := s.replayTo; t != nil && (u.fileID == "" || t.FileID != u.fileID) {
		s.stopReplay()
	}
	return u, nil
}

// tailEnd: a file rotated away or truncated takes the session's open
// loops with it as truncated evidence; the run restarts on the new file.
func (s *sourceState) tailEnd(_ *unit, err error) error {
	s.d.log.Info("tail file replaced; restarting on new file", "source", s.name, "err", err)
	s.mu.Lock()
	s.sess.Drain()
	s.sess, s.cp = nil, SourceCheckpoint{Kind: s.kind, Path: s.path}
	s.mu.Unlock()
	return errRestart
}

// dirKind reads a rotated-capture directory's segments in lexical order
// on one session; the newest is followed until a successor exists.
type dirKind struct {
	s    *sourceState
	last string // the lexically greatest segment opened
}

// next waits for the first segment after the last one opened. A
// resumed run starts at its restart point's segment, which may precede
// the checkpointed one, unless rotation has removed either: then it
// starts fresh on what the directory holds.
func (k *dirKind) next(ctx context.Context) (*unit, error) {
	s, poll, seg := k.s, k.s.d.cfg.TailPoll, ""
	if t := s.replayTo; t != nil && k.last == "" {
		segs, _ := s.listSegments()
		if seg = t.Restart.File; !slices.Contains(segs, seg) || !slices.Contains(segs, t.File) {
			return nil, s.fresh("restart_segment_missing", "segment", seg)
		}
	}
	for since := time.Now(); seg == ""; {
		segs, err := s.listSegments()
		if err != nil {
			return nil, err
		}
		if i := sort.SearchStrings(segs, k.last+"\x00"); i < len(segs) {
			seg = segs[i]
			continue
		}
		s.markIdle(since)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
	path := filepath.Join(s.path, seg)
	tr, err := s.openTail(path, 2*poll)
	if err != nil {
		return nil, err
	}
	u := &unit{r: tr, path: path, idle: 2 * poll, file: seg, caughtUp: s.refreshDirLag, end: s.segmentEnd}
	k.last = seg
	s.refreshDirLag(u)
	return u, nil
}

func (s *sourceState) segmentEnd(u *unit, err error) error {
	s.d.log.Info("segment ended mid-read", "source", s.name, "segment", u.file, "err", err)
	return nil
}

// refreshDirLag places u's segment in the directory — segment i of N,
// the segments and bytes still unread after it — and reports whether it
// has a successor, which ends u once caught up (so idle polling lists
// the directory once).
func (s *sourceState) refreshDirLag(u *unit) bool {
	segs, err := s.listSegments()
	if err != nil {
		return false
	}
	i := sort.SearchStrings(segs, u.file+"\x00") // the first segment after u's
	later := int64(0)
	for _, f := range segs[i:] {
		if st, err := os.Stat(filepath.Join(s.path, f)); err == nil {
			later += st.Size()
		}
	}
	s.mu.Lock()
	s.segIndex, s.segCount, s.lagSegments = i, len(segs), int64(len(segs)-i)
	s.laterBytes, s.lagBytes = later, u.r.Size()-u.r.Offset()+later
	s.lagG.Set(s.lagBytes)
	s.lagSegsG.Set(s.lagSegments)
	s.mu.Unlock()
	return i < len(segs)
}

// listSegments returns the directory's trace files in lexical order.
func (s *sourceState) listSegments() ([]string, error) {
	ents, err := os.ReadDir(s.path)
	if err != nil {
		return nil, err
	}
	var out []string // in lexical order, as ReadDir returns them
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// feedUnit accepts the next connection, one native trace stream on a
// session of its own. The bytes go with the socket, so nothing resumes:
// feed checkpoints record progress only.
func (s *sourceState) feedUnit(ctx context.Context) (*unit, error) {
	ln := s.listener
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	s.mu.Lock()
	s.status = "listening"
	s.mu.Unlock()
	for {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok && s.d.cfg.ExitIdle > 0 {
			d.SetDeadline(time.Now().Add(s.d.cfg.ExitIdle))
		}
		conn, err := ln.Accept()
		if ne, ok := err.(net.Error); ok && ne.Timeout() && ctx.Err() == nil {
			s.markIdle(time.Time{})
			continue
		} else if err != nil {
			return nil, err
		}
		c := &connReader{conn: conn, stop: context.AfterFunc(ctx, func() { conn.Close() })}
		if c.File, _, err = trace.OpenStream(conn, trace.OpenOptions{}); err == nil {
			return &unit{r: c, link: c.Meta().Link, end: s.feedEnd}, nil
		}
		c.Close()
		if ctx.Err() == nil {
			s.d.log.Warn("feed connection failed", "source", s.name, "err", fmt.Errorf("feed header: %w", err))
		}
	}
}

// feedEnd: a clean close makes the loops still open complete evidence
// (finals); a cut stream drains them as truncated.
func (s *sourceState) feedEnd(_ *unit, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, io.EOF) {
		s.sess.Complete()
	} else {
		s.d.log.Warn("feed connection failed", "source", s.name, "err", err)
		s.sess.Drain()
	}
	s.sess = nil
	return nil
}

// connReader is a feed connection's stream: no offset, no size.
type connReader struct {
	*trace.File
	conn net.Conn
	stop func() bool
}

func (c *connReader) Borrow(_ context.Context, rec *trace.Record) error { return c.File.Borrow(rec) }
func (c *connReader) Offset() int64                                     { return 0 }
func (c *connReader) Size() int64                                       { return 0 }
func (c *connReader) Close() error                                      { c.stop(); return c.conn.Close() }
