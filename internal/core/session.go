package core

import (
	"time"

	"loopscope/internal/obs/flight"
	"loopscope/internal/trace"
)

// SessionEvent is one loop emission from a Session.
type SessionEvent struct {
	// Loop is the finalized (or, under Drain, partially observed)
	// routing loop.
	Loop *Loop
	// Seq numbers final emissions from 0 in emission order, which is a
	// pure function of the record sequence. Truncated emissions carry
	// Seq -1: they are not part of the final sequence.
	Seq int
	// Truncated marks loops flushed by Drain before the stream reached
	// the point where they could no longer change: the loop is real
	// evidence but its extent may be incomplete, and a resumed run
	// will re-emit the completed version as a final event.
	Truncated bool
}

// Session is the resumable, drainable streaming handle the serve
// daemon runs a live source through. It wraps a Detector with the
// three things continuous operation needs and a one-shot run over a
// file does not:
//
//   - Position accounting: Records and HighWater report how far into
//     the stream the detector has advanced, which is what a checkpoint
//     stores.
//   - A restart point: the Detector is deterministic over a record
//     sequence and holds only the undecided tail of it, so a restarted
//     process rebuilds detector state by feeding a fresh session the
//     records from RestartPoint on. From the checkpointed record on, it
//     emits exactly what this session would have; what it emits before
//     that was delivered before the restart, and the caller, which
//     knows the positions, drops it.
//   - Drain: graceful shutdown flushes the detector mid-stream. Loops
//     forced out by the flush are emitted marked Truncated (their
//     extent could still have grown) and do not advance the final
//     sequence, so a later resume re-emits their completed form.
//
// A Session is not safe for concurrent use; the serve daemon gives
// each source its own.
type Session struct {
	sd   *Detector
	emit func(SessionEvent)

	finals    int
	records   int64
	highWater time.Duration
	draining  bool
	drained   bool
}

// NewSession returns a Session over a fresh Detector. Every emission
// reaches emit synchronously from inside Observe or Drain.
func NewSession(cfg Config, emit func(SessionEvent)) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(SessionEvent) {}
	}
	s := &Session{emit: emit}
	s.sd = NewStreamDetector(cfg, s.onLoop)
	s.sd.forget = true
	s.sd.spans = []span{}
	return s, nil
}

// onLoop routes the detector's emissions through the drain
// bookkeeping.
func (s *Session) onLoop(l *Loop) {
	if s.draining {
		s.emit(SessionEvent{Loop: l, Seq: -1, Truncated: true})
		return
	}
	s.emit(SessionEvent{Loop: l, Seq: s.finals})
	s.finals++
}

// SetFlight attaches a flight-recorder shard to the underlying
// detector. Call before the first Observe; nil keeps recording
// disabled.
func (s *Session) SetFlight(sr *flight.ShardRecorder) { s.sd.setFlight(sr) }

// RestartPoint returns the index r of the record (counted as Records
// counts) a fresh session must be fed from to emit, from the next
// record on, exactly what this one will; exact is false if the memory
// governor shed since r, when that is not promised. at maps an index to
// the nearest one at or before it the caller can re-read from, which
// must be 0 or a record stamped later than the one before it. It costs
// a pass over the detector's state, so take it per checkpoint, not per
// record; r never decreases from one call to the next.
func (s *Session) RestartPoint(at func(int64) int64) (r int64, exact bool) {
	n, exact := s.sd.restartPoint(func(i int) int { return int(at(int64(i))) })
	return int64(n), exact
}

// Observe feeds the next record; records must arrive in non-decreasing
// time order. Like Engine.Observe it does not keep rec.Data past the
// call. Observe must not be called after Drain.
func (s *Session) Observe(rec trace.Record) {
	if s.drained {
		panic("core: Session.Observe after Drain")
	}
	s.records++
	if rec.Time > s.highWater {
		s.highWater = rec.Time
	}
	s.sd.Observe(rec)
}

// Records returns the number of records observed.
func (s *Session) Records() int64 { return s.records }

// HighWater returns the largest record timestamp observed — the
// detector's position on the trace clock.
func (s *Session) HighWater() time.Duration { return s.highWater }

// Shed returns the detector's running shed counters — what the memory
// governor (Config.MaxActiveStreams) has given up so far. The serve
// daemon diffs successive snapshots into loopscope_shed_total.
func (s *Session) Shed() ShedCounts { return s.sd.shedCounts() }

// Emitted returns the number of final loop emissions so far: the Seq
// the next one will carry.
func (s *Session) Emitted() int { return s.finals }

// Drain flushes all remaining detector state. Loops forced out are
// emitted with Truncated set and do not count toward Emitted. The
// session is dead afterwards; it returns the run's statistics.
func (s *Session) Drain() StreamStats {
	if s.drained {
		return StreamStats{}
	}
	s.draining = true
	s.drained = true
	return s.sd.finishStats()
}

// Complete finishes the stream normally: the source reported a genuine
// end (a feed connection closed after its writer finished), so the
// flushed loops are complete evidence and are emitted as finals,
// continuing the sequence. The session is dead afterwards.
func (s *Session) Complete() StreamStats {
	if s.drained {
		return StreamStats{}
	}
	s.drained = true
	return s.sd.finishStats()
}
