package trace

import "io"

// Window bounds, derived from the codec's limits rather than set by
// anyone: it starts at the 64 KiB a buffered reader would use and may
// grow to hold the largest record the codec admits plus the one
// record header salvage looks ahead at.
const (
	windowMin = 1 << 16
	windowMax = maxRecordLen + pcapRecHdrLen
)

// window is the byte buffer every reader decodes from, and it has no
// per-reader mode: strict, salvage and tail all read ahead through the
// same need. Consuming only advances an offset; bytes are moved to the
// front only when the space behind them cannot hold what need asks for,
// so a pass over a file moves at most one partial record per refill. A
// refill offers src all the free space but need never waits for more
// bytes than it was asked for, so the same window sits on a socket or a
// growing file without stalling behind data not yet written. What a
// source owes each read (a tailed file's checks) lives in its own Read.
type window struct {
	src      io.Reader
	buf      []byte
	pos, end int
	// err is why the last read came up short. A failure is sticky; an
	// io.EOF is not, so the next need asks src again, which is all a
	// growing file takes.
	err error
	// moved counts bytes copied by compaction and growth (tests pin it).
	moved int64
}

func newWindow(src io.Reader) *window {
	return &window{src: src, buf: make([]byte, windowMin)}
}

// buffered returns the unconsumed bytes. The slice is invalidated by
// the next need.
func (w *window) buffered() []byte { return w.buf[w.pos:w.end] }

// consume discards n buffered bytes.
func (w *window) consume(n int) { w.pos += n }

// need reports whether at least n bytes are buffered, reading from src
// until they are. False means src ended or failed first: w.err says
// which, and whatever did arrive stays buffered.
func (w *window) need(n int) bool {
	if w.end-w.pos >= n {
		return true
	}
	if w.err != nil && w.err != io.EOF {
		return false
	}
	w.err = nil
	if n > windowMax {
		panic("trace: window asked for more than the codec admits")
	}
	if w.pos+n > len(w.buf) {
		dst := w.buf
		if n > len(dst) {
			dst = make([]byte, min(max(n, 2*len(dst)), windowMax))
		}
		w.moved += int64(copy(dst, w.buf[w.pos:w.end]))
		w.buf, w.pos, w.end = dst, 0, w.end-w.pos
	}
	for empty := 0; w.end-w.pos < n; {
		m, err := w.src.Read(w.buf[w.end:])
		w.end += m
		if err != nil {
			w.err = err
			return w.end-w.pos >= n
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			w.err = io.ErrNoProgress
			return false
		}
	}
	return true
}

// short is the error for input that ended inside something being
// decoded: a clean EOF there is an unexpected one.
func (w *window) short() error {
	if w.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return w.err
}

// Read drains the window, so a compressed stream whose first bytes
// were sniffed here can be handed on to gzip.
func (w *window) Read(p []byte) (int, error) {
	if !w.need(1) {
		return 0, w.err
	}
	n := copy(p, w.buffered())
	w.consume(n)
	return n, nil
}

// ReadByte makes the window an io.ByteReader, which compress/flate
// reads directly instead of through a buffer of its own.
func (w *window) ReadByte() (byte, error) {
	if w.pos == w.end && !w.need(1) {
		return 0, w.err
	}
	w.pos++
	return w.buf[w.pos-1], nil
}
