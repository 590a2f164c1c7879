package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// tailTestWriter opens a native writer on a real file and flushes
// after every record, the shape a live capture writer has.
type tailTestWriter struct {
	f *os.File
	w *Writer
}

func newTailTestWriter(t *testing.T, path string) *tailTestWriter {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, Meta{Link: "tail-test", SnapLen: 64, Start: time.Unix(100, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &tailTestWriter{f: f, w: w}
}

func (tw *tailTestWriter) append(t *testing.T, at time.Duration, payload byte) {
	t.Helper()
	data := make([]byte, 40)
	data[0] = payload
	if err := tw.w.Write(Record{Time: at, WireLen: 40, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := tw.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (tw *tailTestWriter) close(t *testing.T) {
	t.Helper()
	if err := tw.f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTailReaderFollowsGrowingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)
	tw.append(t, 1*time.Second, 1)
	tw.append(t, 2*time.Second, 2)

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()

	for i, want := range []byte{1, 2} {
		rec, err := tr.Next(ctx)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Data[0] != want {
			t.Fatalf("record %d: payload %d, want %d", i, rec.Data[0], want)
		}
	}
	if got := tr.Meta().Link; got != "tail-test" {
		t.Fatalf("Meta().Link = %q", got)
	}
	if tr.Records() != 2 {
		t.Fatalf("Records() = %d, want 2", tr.Records())
	}

	// Append while a Next is blocked: the record must be delivered.
	go func() {
		time.Sleep(20 * time.Millisecond)
		tw.append(t, 3*time.Second, 3)
	}()
	rec, err := tr.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Data[0] != 3 {
		t.Fatalf("payload %d, want 3", rec.Data[0])
	}
}

// TestTailReaderPartialRecordWithheld checks that a partially written
// record is withheld until the writer completes it.
func TestTailReaderPartialRecordWithheld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "half.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)
	tw.append(t, time.Second, 1)

	// Hand-append half a record header directly.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond, IdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The dangling 4 bytes are not a complete record: Next must idle
	// out rather than deliver garbage.
	if _, err := tr.Next(context.Background()); !errors.Is(err, ErrTailIdle) {
		t.Fatalf("Next on half record: %v, want ErrTailIdle", err)
	}
}

func TestTailReaderTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.lspt")
	tw := newTailTestWriter(t, path)
	tw.append(t, time.Second, 1)
	tw.append(t, 2*time.Second, 2)
	tw.close(t)

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(ctx); err != nil {
		t.Fatal(err)
	}
	// Rewrite the file shorter than the consumed offset.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(ctx); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("Next after truncate: %v, want ErrTailTruncated", err)
	}
}

func TestTailReaderRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rot.lspt")
	tw := newTailTestWriter(t, path)
	tw.append(t, time.Second, 1)

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	if _, err := tr.Next(ctx); err != nil {
		t.Fatal(err)
	}

	// Rotate: move the file aside, write one more record to the moved
	// file (still the open handle), and create a fresh file at path.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	tw.append(t, 2*time.Second, 2)
	tw.close(t)
	nw := newTailTestWriter(t, path)
	defer nw.close(t)

	// The record written after the rename is still delivered (drain),
	// then rotation is reported.
	rec, err := tr.Next(ctx)
	if err != nil {
		t.Fatalf("drain after rotation: %v", err)
	}
	if rec.Data[0] != 2 {
		t.Fatalf("drained payload %d, want 2", rec.Data[0])
	}
	if _, err := tr.Next(ctx); !errors.Is(err, ErrTailRotated) {
		t.Fatalf("Next after drain: %v, want ErrTailRotated", err)
	}
}

func TestTailReaderCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tr.Next(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Next did not return after cancellation")
	}
}

func TestTailReaderEmptyFileHeaderLazily(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.lspt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := OpenTail(path, TailOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	go func() {
		time.Sleep(20 * time.Millisecond)
		tw := newTailTestWriter(t, path)
		tw.append(t, time.Second, 9)
		tw.close(t)
	}()
	rec, err := tr.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Data[0] != 9 {
		t.Fatalf("payload %d, want 9", rec.Data[0])
	}
}

// The tests below pin the reader's contract under read-ahead. Their
// files are several windows long, so most of what Next delivers was
// buffered by an earlier refill.

const (
	tailTestHdrLen = nativeFileHdrLen + len("tail-test")
	tailTestRecLen = nativeRecHdrLen + 40
	// tailTestMany records fill windowMin about four times over.
	tailTestMany = 5000
)

// appendMany writes records [from, from+n) — record i stamped i µs and
// carrying i in its first four bytes — and flushes once.
func (tw *tailTestWriter) appendMany(t *testing.T, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		data := make([]byte, 40)
		binary.BigEndian.PutUint32(data, uint32(i))
		if err := tw.w.Write(Record{Time: time.Duration(i) * time.Microsecond, WireLen: 40, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// wantNext reads one record and requires it to be record i of
// appendMany, with Offset and Records on its boundary whatever the
// window holds beyond it, and a lag that is never negative.
func wantNext(t *testing.T, tr *TailReader, i int) {
	t.Helper()
	rec, err := tr.Next(context.Background())
	if err != nil {
		t.Fatalf("record %d: %v", i, err)
	}
	if got := int(binary.BigEndian.Uint32(rec.Data)); got != i || rec.Time != time.Duration(i)*time.Microsecond {
		t.Fatalf("record %d: delivered record %d at %v", i, got, rec.Time)
	}
	if want := int64(tailTestHdrLen + (i+1)*tailTestRecLen); tr.Offset() != want || tr.Records() != int64(i+1) {
		t.Fatalf("record %d: Offset %d Records %d, want %d and %d", i, tr.Offset(), tr.Records(), want, i+1)
	}
	if tr.Size() < tr.Offset() {
		t.Fatalf("record %d: Size %d behind Offset %d", i, tr.Size(), tr.Offset())
	}
}

func openTailMany(t *testing.T, path string) *TailReader {
	t.Helper()
	tr, err := OpenTail(path, TailOptions{Poll: time.Millisecond, IdleTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestTailOffsetCountsDeliveredBytes: Offset is the encoded size of the
// header plus the records delivered, not of what has been read.
func TestTailOffsetCountsDeliveredBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)
	tw.appendMany(t, 0, tailTestMany)
	tr := openTailMany(t, path)
	ahead := int64(0)
	for i := 0; i < tailTestMany; i++ {
		wantNext(t, tr, i)
		ahead = max(ahead, tr.readOff-tr.Offset())
	}
	if ahead < windowMin/2 {
		t.Fatalf("reader never held more than %d bytes ahead of Offset; the test means to run buffered", ahead)
	}
	if _, err := tr.Next(context.Background()); !errors.Is(err, ErrTailIdle) {
		t.Fatalf("Next at the end: %v, want ErrTailIdle", err)
	}
	if tr.Size() != tr.Offset() {
		t.Fatalf("caught up with Size %d, Offset %d", tr.Size(), tr.Offset())
	}
}

// TestTailStartAt: a reader started at a record's offset reads the
// header, delivers that record next and counts on from it, past the
// first window; an offset at the header's end is record 0.
func TestTailStartAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)
	tw.appendMany(t, 0, tailTestMany)
	for _, from := range []int{0, 1, tailTestMany / 2, tailTestMany - 1} {
		tr := openTailMany(t, path)
		tr.StartAt(int64(tailTestHdrLen+from*tailTestRecLen), int64(from))
		for i := from; i < tailTestMany; i++ {
			wantNext(t, tr, i)
		}
		if _, err := tr.Next(context.Background()); !errors.Is(err, ErrTailIdle) {
			t.Fatalf("from %d, Next at the end: %v, want ErrTailIdle", from, err)
		}
		if tr.Meta().Link != "tail-test" {
			t.Fatalf("from %d: header not read (%+v)", from, tr.Meta())
		}
	}
}

// TestTailRotationDrainsBufferedAndUnread: the file is renamed and
// succeeded while the reader has a window of it buffered and most of it
// unread. Every record arrives once, in order, then ErrTailRotated.
func TestTailRotationDrainsBufferedAndUnread(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.lspt")
	tw := newTailTestWriter(t, path)
	tw.appendMany(t, 0, tailTestMany-100)
	tr := openTailMany(t, path)
	for i := 0; i < 10; i++ {
		wantNext(t, tr, i)
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	tw.appendMany(t, tailTestMany-100, 100) // the writer's last words, after the rename
	tw.close(t)
	nw := newTailTestWriter(t, path)
	defer nw.close(t)
	nw.appendMany(t, 0, 3) // the successor's records are not this reader's

	for i := 10; i < tailTestMany; i++ {
		wantNext(t, tr, i)
	}
	if _, err := tr.Next(context.Background()); !errors.Is(err, ErrTailRotated) {
		t.Fatalf("Next after the drain: %v, want ErrTailRotated", err)
	}
	if tr.Records() != tailTestMany {
		t.Fatalf("delivered %d records, want %d", tr.Records(), tailTestMany)
	}
}

// TestTailTruncationBelowReadOffset: the file is cut below what has
// been read while complete records and the front half of one more sit
// in the window, then rewritten with other bytes. The buffered complete
// records may still arrive (they were read from the file as it was);
// the half record is never completed from the rewritten file.
func TestTailTruncationBelowReadOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.lspt")
	tw := newTailTestWriter(t, path)
	tw.appendMany(t, 0, tailTestMany)
	tw.close(t)
	whole := int64(tailTestHdrLen + tailTestMany*tailTestRecLen)
	half := make([]byte, tailTestRecLen/2)
	binary.BigEndian.PutUint64(half, uint64(time.Duration(tailTestMany)*time.Microsecond))
	binary.BigEndian.PutUint16(half[8:], 40)
	binary.BigEndian.PutUint16(half[10:], 40)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(half, whole); err != nil {
		t.Fatal(err)
	}

	tr := openTailMany(t, path)
	i := 0
	for ; tr.readOff < whole+int64(len(half)); i++ {
		wantNext(t, tr, i)
	}
	if i >= tailTestMany-100 {
		t.Fatalf("file end reached only at record %d; the test means to cut with records buffered", i)
	}
	// Cut well below the read offset, then grow back with other bytes,
	// still short of it (a file regrown past the read offset between two
	// refills is beyond a size check, as it always was).
	if err := f.Truncate(int64(tailTestHdrLen + 50*tailTestRecLen)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, tailTestRecLen), whole-int64(10*tailTestRecLen)); err != nil {
		t.Fatal(err)
	}
	for ; i < tailTestMany; i++ {
		wantNext(t, tr, i)
	}
	for range 2 { // and it stays that way
		if rec, err := tr.Next(context.Background()); !errors.Is(err, ErrTailTruncated) {
			t.Fatalf("Next past the buffered records: %+v, %v; want ErrTailTruncated", rec, err)
		}
	}
	if tr.Records() != tailTestMany {
		t.Fatalf("delivered %d records, want %d", tr.Records(), tailTestMany)
	}
}

// TestTailCancellationWithFullWindow: a cancelled context stops the
// reader at the next call even when that call could be served from the
// window without waiting — draining a backlog must not outlast SIGTERM.
func TestTailCancellationWithFullWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.lspt")
	tw := newTailTestWriter(t, path)
	defer tw.close(t)
	tw.appendMany(t, 0, tailTestMany)
	tr := openTailMany(t, path)
	wantNext(t, tr, 0)
	if buffered := len(tr.w.buffered()); buffered < tailTestRecLen {
		t.Fatalf("window holds %d bytes after the first record; the test means to cancel with records buffered", buffered)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec, err := tr.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %+v, %v", rec, err)
	}
	if tr.Records() != 1 {
		t.Fatalf("cancelled Next delivered: Records %d", tr.Records())
	}
	wantNext(t, tr, 1) // and nothing was lost to it
}

// TestTailCancellationStopsBacklogDrain: a reader draining a file that
// is already complete never waits, so only the per-call check can stop
// it. Cancelled partway through — in the first window and in a later
// one, by cancel and by an expired deadline — Next delivers nothing
// more under that context and loses nothing for the next one.
func TestTailCancellationStopsBacklogDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backlog.lspt")
	tw := newTailTestWriter(t, path)
	tw.appendMany(t, 0, tailTestMany)
	tw.close(t)
	tr := openTailMany(t, path)
	defer tr.Close()

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	i := 0
	for _, stopAt := range []int{100, tailTestMany / 2} {
		ctx, cancel := context.WithCancel(context.Background())
		for ; i < stopAt; i++ {
			if _, err := tr.Next(ctx); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		cancel()
		for range 3 {
			if rec, err := tr.Next(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Next after cancel at %d: %+v, %v", stopAt, rec, err)
			}
		}
		if rec, err := tr.Next(expired); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Next past the deadline at %d: %+v, %v", stopAt, rec, err)
		}
		if tr.Records() != int64(stopAt) || tr.Offset() != int64(tailTestHdrLen+stopAt*tailTestRecLen) {
			t.Fatalf("cancelled at %d: Records %d Offset %d", stopAt, tr.Records(), tr.Offset())
		}
	}
	for ; i < tailTestMany; i++ {
		wantNext(t, tr, i)
	}
	if _, err := tr.Next(context.Background()); !errors.Is(err, ErrTailIdle) {
		t.Fatalf("Next past the end: %v, want ErrTailIdle", err)
	}
}

// TestTailAllocationBudget: reading a backlog costs one file check and
// one positioned read per window, and a slab every few hundred records —
// not a check, a read or an allocation per record.
func TestTailAllocationBudget(t *testing.T) {
	const n = 20_000
	path := filepath.Join(t.TempDir(), "backlog.lspt")
	tw := newTailTestWriter(t, path)
	tw.appendMany(t, 0, n)
	tw.close(t)
	size := int64(tailTestHdrLen + n*tailTestRecLen)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := OpenTail(path, TailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := tr.Next(ctx); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if tr.Offset() != size {
		t.Fatalf("Offset %d after %d records, want %d", tr.Offset(), n, size)
	}
	budget := (size+windowMin-1)/windowMin + 2
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%d refills for %d bytes (budget %d), %.4f allocs per record", tr.refills, size, budget, allocs)
	if tr.refills > budget {
		t.Errorf("%d refills for %d bytes, budget %d", tr.refills, size, budget)
	}
	if !raceEnabled && allocs > 0.01 { // the race detector allocates on its own account
		t.Errorf("tailing costs %.4f allocs per record, budget 0.01", allocs)
	}
}
