// Package durable is the one mechanism behind every file loopscope
// persists. It owns the decisions those files share — Log: append-only
// lines, a torn tail quarantined to <path>.quarantine on open, one
// fault-injection seam, one write(2) and the fsync policy per append;
// Replay: one bounded-line reader whose bad lines are counted and
// skipped, never fatal; Save/Load: an atomic document (temp file, fsync,
// rename), moved to <path>.corrupt when it does not decode. What lines
// and documents mean (dedup, retention, strict decoding, health) stays
// with the callers.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"loopscope/internal/resil"
)

// FsyncPolicy selects how aggressively a Log flushes to stable storage.
type FsyncPolicy int

const (
	// FsyncOff (the default) writes through to the file descriptor but
	// leaves flushing to the OS: the process dying loses nothing, an OS
	// crash can lose the tail — which torn-tail repair plus checkpoint
	// resume turns into re-emission, not loss.
	FsyncOff FsyncPolicy = iota
	// FsyncAlways fsyncs after every append. Loop events are rare (they
	// are detections, not packets), so the cost is paid per loop, not
	// per record.
	FsyncAlways
)

// ErrNotSynced wraps an fsync failure after a successful append: the
// line is in the file, so retrying would append it twice.
var ErrNotSynced = errors.New("durable: line appended but not synced")

// Log is an append-only file of newline-terminated records. Not safe
// for concurrent use: every caller already appends under its own lock.
type Log struct {
	path  string
	fsync FsyncPolicy
	inj   resil.Injector
	op    resil.Op
	f     *os.File
	size  int64
	// write is (*os.File).Write except in tests that cut a write short.
	write func(f *os.File, p []byte) (int, error)
}

// OpenLog creates path's directory, quarantines a torn trailing line
// left by a crash (torn is how many bytes moved to the sidecar) and
// opens the file O_APPEND, creating it if missing. Every Append
// consults inj at op first (chaos tests; production passes nil).
func OpenLog(path string, fsync FsyncPolicy, inj resil.Injector, op resil.Op) (l *Log, torn int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, err
	}
	if torn, err = repairTornTail(path); err != nil {
		return nil, 0, err
	}
	l = &Log{path: path, fsync: fsync, inj: inj, op: op, write: (*os.File).Write}
	if err := l.reopen(); err != nil {
		return nil, 0, err
	}
	return l, torn, nil
}

// reopen (re)opens the file for appending and picks up its size.
func (l *Log) reopen() error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, st.Size()
	return nil
}

// Size is the file's length as of the last open or append.
func (l *Log) Size() int64 { return l.size }

// Append writes line (which must end in '\n') with a single write(2),
// so a crash leaves the whole line or a torn tail for the next OpenLog.
// With no descriptor held — after Rotate or Close — it opens the file
// first, so a failed open costs the appends until one succeeds, not
// every later one. A short write (ENOSPC mid-line) is rolled back —
// truncated away or, failing that, newline-terminated — so a retry is
// never fused onto the fragment into one unparseable line.
func (l *Log) Append(line []byte) error {
	if l.f == nil {
		if err := l.reopen(); err != nil {
			return err
		}
	}
	if err := resil.Inject(l.inj, l.op); err != nil {
		return err
	}
	n, err := l.write(l.f, line)
	if err != nil { // os.File.Write never returns n < len(line) with a nil error
		if n > 0 && l.f.Truncate(l.size) != nil {
			l.size += int64(n)
			if _, werr := l.f.Write([]byte{'\n'}); werr == nil {
				l.size++
			}
		}
		return err
	}
	l.size += int64(n)
	if l.fsync == FsyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("%w: %v", ErrNotSynced, err)
		}
	}
	return nil
}

// Rotate retires the file to dst; the next Append starts a fresh one
// (or, after a failed rename, continues into the old one).
func (l *Log) Rotate(dst string) error {
	l.f.Close()          // nil-safe; every line was already written (and synced, if the policy says so)
	l.f, l.size = nil, 0 // the next Append reopens and picks up the real size
	return os.Rename(l.path, dst)
}

// Close syncs and releases the file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := errors.Join(l.f.Sync(), l.f.Close())
	l.f = nil
	return err
}

// tornScanBack bounds how far back repairTornTail searches for the
// last newline. One journal line is well under 4KB; a megabyte covers
// any realistic record with orders of magnitude to spare.
const tornScanBack = 1 << 20

// repairTornTail makes a JSONL file append-safe after a crash: if the
// file does not end in a newline, the bytes after the last newline are
// a torn record from a write cut short by kill -9, ENOSPC or power
// loss. Appending to it as-is would corrupt the first new record (two
// half-lines fused into one unparseable line), so the partial tail is
// moved into a quarantine sidecar (path + ".quarantine", appended so
// repeated crashes accumulate evidence instead of overwriting it) and
// the file is truncated back to the last complete line.
//
// A missing file is fine (nothing to repair). Returns how many bytes
// were quarantined.
func repairTornTail(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return 0, nil
	}
	// Find the last newline within the scan window; everything after it
	// is the torn record.
	scan := int64(tornScanBack)
	if scan > size {
		scan = size
	}
	buf := make([]byte, scan)
	if _, err := f.ReadAt(buf, size-scan); err != nil {
		return 0, err
	}
	keep := size - scan // bytes before the window, all in complete lines
	if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
		keep = size - scan + int64(i) + 1
	}
	torn := size - keep
	if err := quarantineBytes(path, f, keep, torn); err != nil {
		return 0, fmt.Errorf("durable: quarantining torn tail of %s: %w", path, err)
	}
	if err := f.Truncate(keep); err != nil {
		return 0, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return torn, nil
}

// quarantineBytes appends f's bytes at [off, off+n) to the quarantine
// sidecar, newline-terminated so successive crashes stay one line each.
func quarantineBytes(path string, f *os.File, off, n int64) error {
	q, err := os.OpenFile(path+".quarantine", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(q, io.NewSectionReader(f, off, n)); err != nil {
		q.Close()
		return err
	}
	if _, err := q.Write([]byte{'\n'}); err != nil {
		q.Close()
		return err
	}
	return q.Close()
}
