package trace

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync/atomic"
	"time"

	"loopscope/internal/resil"
)

// Tail errors. Both are terminal for the reader: the caller decides
// whether to reopen (rotation) or to start over (truncation).
var (
	// ErrTailTruncated reports that the file shrank below the offset
	// already consumed — it was rewritten in place, so everything read
	// so far describes a file that no longer exists.
	ErrTailTruncated = errors.New("trace: tailed file truncated below consumed offset")
	// ErrTailRotated reports that the path now names a different file
	// (the writer rotated) and the old file has been fully drained.
	ErrTailRotated = errors.New("trace: tailed file rotated; old file drained")
	// ErrTailIdle reports that no new record arrived within the
	// configured idle timeout while the file was fully consumed.
	ErrTailIdle = errors.New("trace: tail idle")
)

// TailOptions configures OpenTail. The zero value polls every 200ms
// and never times out.
type TailOptions struct {
	// Poll is the interval at which the reader re-checks the file for
	// appended data once it has caught up. <= 0 selects 200ms.
	Poll time.Duration
	// PollMax, when larger than Poll, makes the poll interval escalate
	// (doubling, jittered) from Poll towards PollMax while the file
	// stays quiet, resetting to Poll as soon as a record arrives — an
	// idle tail costs close to nothing, a busy one is read at full
	// cadence. Zero keeps the fixed Poll interval.
	PollMax time.Duration
	// IdleTimeout, when positive, makes Borrow return ErrTailIdle after
	// the file has been fully consumed and no new record has arrived
	// for this long. Zero waits forever.
	IdleTimeout time.Duration
}

// TailReader follows a native-format trace file that is still being
// written. Borrow delivers complete records as they are appended,
// blocking (by polling) while the writer is mid-record or idle:
//
//   - every complete record is delivered once, in file order, and a
//     half-written record never, however the writer sizes its appends;
//   - Offset and Records count delivered bytes and records, whatever has
//     been read ahead of them, so a reader killed and restarted at a
//     recorded offset resumes exactly where it stopped;
//   - a file shorter than what has been read from it was rewritten in
//     place: ErrTailTruncated at the next refill, and a half-written
//     record at the cut is never completed from the rewritten file;
//   - a path that names another file means the writer rotated: the old
//     file is drained to its final record, then ErrTailRotated.
//
// The window reads ahead like every other reader's, by ReadAt at a
// remembered offset so a writer appending to the same file is safe, and
// the file is checked before each refill — once per 64 KiB of backlog,
// once per poll when caught up — not once per record. So up to one
// window of records already read from a file may still be delivered
// after it is truncated or replaced, as if read a moment sooner.
type TailReader struct {
	path string
	f    *os.File
	opts TailOptions

	w       *window
	c       codec
	hdrDone bool

	off  atomic.Int64 // next undelivered byte
	n    atomic.Int64 // records delivered
	size atomic.Int64 // file size at the last refill or poll

	readOff int64 // next unread byte: off plus what the window holds
	seekOff int64 // where the first record read starts (StartAt)
	seekN   int64 // how many records precede it
	rotated bool  // the last refill that could reach EOF found another file at path
	refills int64 // refills: one check and one read each (tests pin it)
	last    int64 // newest delivered record's timestamp
	poll    *resil.Retrier
	slab    slab   // Next's copies
	lent    Record // what Next borrows into: a local would escape
}

// OpenTail opens path for tailing. The file must exist, but may still
// be empty: the native header is parsed lazily, on the first Borrow, so
// a daemon can attach to a capture file the writer has only just
// created. Callers that need to wait for the file to appear retry
// OpenTail (the serve supervisor's restart-with-backoff does exactly
// that).
func OpenTail(path string, opts TailOptions) (*TailReader, error) {
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Without PollMax the policy degenerates to a constant interval —
	// exactly the historical fixed-Poll behavior. With it the wait
	// escalates while idle and snaps back to Poll on progress.
	pol := resil.Policy{Base: opts.Poll, Max: opts.Poll, Factor: 1}
	if opts.PollMax > opts.Poll {
		pol = resil.Policy{Base: opts.Poll, Max: opts.PollMax, Factor: 2, Jitter: true}
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	t := &TailReader{
		path: path, f: f, opts: opts,
		c:    newCodec(FormatNative),
		poll: resil.NewRetrier(pol, h.Sum64()),
	}
	t.w = newWindow(tailSource{t})
	return t, nil
}

// Meta returns the trace metadata. Before the header has been read
// (no Borrow call has succeeded yet) it returns the zero Meta.
func (t *TailReader) Meta() Meta { return t.c.meta }

// Offset returns the byte offset consumed so far (safe concurrently).
func (t *TailReader) Offset() int64 { return t.off.Load() }

// Records returns the number of records delivered (safe concurrently).
func (t *TailReader) Records() int64 { return t.n.Load() }

// Size returns the file size observed at the last refill or poll (safe
// concurrently). Size-Offset is the reader's byte lag: what is buffered
// but undelivered counts as lag.
func (t *TailReader) Size() int64 { return t.size.Load() }

// FileID identifies the open file (device:inode on Unix) so a
// checkpoint can tell whether the path still names the file it
// described when it was written.
func (t *TailReader) FileID() string {
	st, err := t.f.Stat()
	if err != nil {
		return ""
	}
	return FileID(st)
}

// SetIdleTimeout replaces the idle timeout and returns the previous
// value. It lets a caller bound one phase of consumption — e.g. a
// checkpoint replay, where every expected byte is already on disk and
// any idle wait means the file does not match the checkpoint — without
// reopening the reader. Not safe concurrently with Borrow.
func (t *TailReader) SetIdleTimeout(d time.Duration) time.Duration {
	prev := t.opts.IdleTimeout
	t.opts.IdleTimeout = d
	return prev
}

// StartAt makes the reader start at byte off, where record number n
// begins, instead of at the first record: the header is still read, and
// Offset and Records count on from there. A resumed daemon re-reads
// from its checkpoint's restart point this way, not from the file's
// start. Call it before the first Borrow.
func (t *TailReader) StartAt(off, n int64) { t.seekOff, t.seekN = off, n }

// Close releases the file handle.
func (t *TailReader) Close() error { return t.f.Close() }

// tailSource feeds the window of a TailReader: check for truncation and
// rotation, then read on from where the last read stopped. A failed
// check is the window's sticky error, which Borrow returns once the
// records buffered ahead of it are delivered.
type tailSource struct{ t *TailReader }

func (s tailSource) Read(p []byte) (int, error) {
	t := s.t
	t.refills++
	st, err := t.f.Stat()
	if err != nil {
		return 0, err
	}
	// Bytes of a half-written record may be buffered past the consumed
	// offset; a file shorter than what was read is no longer the file
	// they came from.
	if st.Size() < t.readOff {
		return 0, ErrTailTruncated
	}
	// A path that vanished (rotation in progress, or the writer is gone)
	// counts as rotated: keep draining the open handle; the caller sees
	// ErrTailRotated once the drain catches up. Only a read that can
	// reach the end of the file needs to know; one that the size already
	// fills is backlog, and skips the check and what it allocates.
	if st.Size()-t.readOff < int64(len(p)) {
		pst, err := os.Stat(t.path)
		t.rotated = err != nil || !os.SameFile(st, pst)
	}
	n, err := t.f.ReadAt(p, t.readOff)
	// A writer appending meanwhile lets the read run past the size just
	// observed; Size never lags what has been buffered.
	t.readOff += int64(n)
	t.size.Store(max(st.Size(), t.readOff))
	return n, err
}

// Next is Borrow plus a copy of the record's Data into a slab. No tool
// reads through it (the daemon borrows); it is kept only because the
// benchmark harness (bench/layers.go) compiles against it, and goes
// when that harness moves to core.Run (ROADMAP items 1 and 8).
func (t *TailReader) Next(ctx context.Context) (Record, error) {
	if err := t.Borrow(ctx, &t.lent); err != nil {
		return Record{}, err
	}
	rec := t.lent
	rec.Data = t.slab.own(rec.Data)
	return rec, nil
}

// Borrow writes the next complete record into *rec, blocking until one
// is appended. The record's Data is a view of the reader's window,
// valid until the next Borrow or Next. It returns ctx.Err() on
// cancellation, ErrTailTruncated if the file shrank, ErrTailRotated
// once the path names a new file and the old one is drained,
// ErrTailIdle on idle timeout, and any decode error permanently; on
// any error it leaves *rec as it was.
func (t *TailReader) Borrow(ctx context.Context, rec *Record) error {
	// Per call, not per wait: draining a backlog never waits and must
	// still stop. A receive on Done costs an atomic load; ctx.Err locks.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	var idleSince time.Time // set at this call's first wait
	for {
		var h recHeader
		switch st := t.c.pull(t.w, !t.hdrDone, &h); {
		case st == stMalformed:
			return fmt.Errorf("trace: tail %s: %w", t.path, t.c.malformedErr(&h))
		case st == stNeedMore:
			// The end of a growing file is "not yet"; a failed check or read
			// is permanent. The refill ran inside this pull: t.rotated is current.
			if t.w.err != io.EOF {
				return t.w.err
			}
			if t.rotated {
				return ErrTailRotated
			}
			wait := t.poll.Next()
			if d := t.opts.IdleTimeout; d > 0 {
				if idleSince.IsZero() {
					idleSince = time.Now()
				}
				// A timeout shorter than the poll is still honoured on time.
				if wait = min(wait, d-time.Since(idleSince)); wait <= 0 {
					return ErrTailIdle
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		case !t.hdrDone:
			t.w.consume(h.size)
			t.off.Store(int64(h.size))
			t.hdrDone = true
			if t.seekOff > int64(h.size) {
				t.w.consume(len(t.w.buffered()))
				t.readOff = t.seekOff
				t.off.Store(t.seekOff)
				t.n.Store(t.seekN)
			}
		case h.ts < t.last:
			return fmt.Errorf("trace: tail %s: record %d goes back in time (%v < %v)",
				t.path, t.n.Load(), time.Duration(h.ts), time.Duration(t.last))
		default:
			t.last = h.ts
			t.off.Add(int64(h.size))
			t.n.Add(1)
			t.poll.Reset()
			t.c.lend(&h, t.w, rec)
			return nil
		}
	}
}

// FileID renders a FileInfo's identity as "dev:inode" on platforms
// that expose it, or falls back to name+size+mtime. It is the identity
// a checkpoint stores to recognise the file it described.
func FileID(st os.FileInfo) string {
	if id := sysFileID(st); id != "" {
		return id
	}
	return fmt.Sprintf("%s:%d:%d", st.Name(), st.Size(), st.ModTime().UnixNano())
}
