package fibscan

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// What the Reader, walking the file and snapshot objects itself,
// refuses although encoding/json would decode it into a SnapshotFile:
// bytes after the document; a key given twice in either object (the
// last would win, so a trailing "snapshots": [] would silently empty a
// timeline); a key of either object in another case (json folds case).
var (
	errTrailingData = errors.New("data after the end of the document")
	errDuplicateKey = errors.New("duplicate key")
	errUnknownKey   = errors.New("unknown field")
)

// window is the Reader's first buffer size; it grows to hold the
// largest value it has to keep whole. 64 KiB read no faster.
const window = 8 << 10

// Reader streams a snapshot file, so that a consumer holding one
// snapshot holds one snapshot however long the timeline. It frames the
// file itself over a window of its bytes and has encoding/json decode
// every key, scalar and router object — except a router whose bytes
// start with those the same-index router of the previous snapshot was
// decoded from. An object ends where its own bytes say, so that is the
// previous RouterFIB, handed out again (equal bytes decode to equal
// tables, whatever the revision field says), shared and read-only.
type Reader struct {
	src io.Reader
	err error  // the source's first error, io.EOF at its end
	buf []byte // the window; buf[0] is at offset off of the file
	off int64
	pos int // the cursor

	// file holds the document's scalar fields; Snapshots is non-nil
	// once the key held an array, and filled only by Decode.
	file   SnapshotFile
	index  int // snapshots read
	lastNs int64

	prev         []RouterFIB // routers of the previous snapshot
	prevRaw      [][]byte    // and the bytes each was decoded from
	decoded      int         // routers handed to encoding/json
	decodedBytes int         // and bytes, keys and scalars included
}

// NewReader returns a Reader over the snapshot file in r.
func NewReader(r io.Reader) *Reader { return &Reader{src: r, buf: make([]byte, 0, window)} }

// Network returns the file's network label, known once Each returned.
func (r *Reader) Network() string { return r.file.Network }

// Each reads the file — once — and calls fn with every snapshot in
// turn; order is checked as they stream. It returns fn's first error,
// or what is wrong with the file: also checked are that nothing follows
// the document and the version, which may come after the snapshots.
func (r *Reader) Each(fn func(*Snapshot) error) error {
	err := r.object(func(key string) error {
		switch key {
		case "version":
			return r.decode(&r.file.Version)
		case "network":
			return r.decode(&r.file.Network)
		case "snapshots":
			return r.within('[', ']', func() { r.file.Snapshots = []Snapshot{} }, func() error {
				s, err := r.snapshot()
				if err != nil {
					return err
				}
				return fn(s)
			})
		}
		return fmt.Errorf("%w %q", errUnknownKey, key)
	})
	if err == nil {
		if _, more := r.peek(); more != io.EOF { // a byte or a read error
			err = errTrailingData
		}
	}
	if err == io.EOF { // the input ran out inside the document
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("fibscan: snapshot file, offset %d: %w", r.off+int64(r.pos), err)
	}
	return r.file.validate()
}

// snapshot reads one element of the snapshots array, reusing the
// previous snapshot's RouterFIB wherever a router's bytes repeat.
func (r *Reader) snapshot() (*Snapshot, error) {
	s := new(Snapshot)
	err := r.object(func(key string) error {
		switch key {
		case "takenNs":
			return r.decode(&s.TakenNs)
		case "routers":
			return r.within('[', ']', func() { s.Routers = make([]RouterFIB, 0, len(r.prev)) }, func() error {
				n := len(s.Routers)
				if n < len(r.prev) && r.repeats(r.prevRaw[n]) {
					s.Routers = append(s.Routers, r.prev[n])
					return nil
				}
				var rf RouterFIB
				r.decoded++
				at := r.off + int64(r.pos) // the window may move under decode
				if err := r.decode(&rf); err != nil {
					return fmt.Errorf("snapshot %d, router %d: %w", r.index, n, err)
				}
				s.Routers = append(s.Routers, rf)
				if n == len(r.prevRaw) {
					r.prevRaw = append(r.prevRaw, nil)
				}
				r.prevRaw[n] = append(r.prevRaw[n][:0], r.buf[at-r.off:r.pos]...)
				return nil
			})
		}
		return fmt.Errorf("%w %q in snapshot %d", errUnknownKey, key, r.index)
	})
	if err == nil && r.index > 0 && s.TakenNs < r.lastNs {
		err = fmt.Errorf("snapshot out of order at index %d (%d < %d)", r.index, s.TakenNs, r.lastNs)
	}
	r.prev, r.prevRaw = s.Routers, r.prevRaw[:len(s.Routers)]
	r.lastNs = s.TakenNs
	r.index++
	return s, err
}

// object walks the object at the cursor, calling field at each key's
// value and refusing a key met twice.
func (r *Reader) object(field func(key string) error) error {
	seen := make(map[string]bool, 3)
	return r.within('{', '}', func() {}, func() error {
		var key string
		if err := r.decode(&key); err != nil {
			return err
		}
		if seen[key] {
			return fmt.Errorf("%w %q", errDuplicateKey, key)
		}
		seen[key] = true
		if err := r.expect(':'); err != nil {
			return err
		}
		return field(key)
	})
}

// within walks the object or array — open and end delimit it — at the
// cursor: begin past the opening delimiter, each at every member. Like
// encoding/json it takes null for a value left out (no keys, a nil
// slice), and then calls neither.
func (r *Reader) within(open, end byte, begin func(), each func() error) error {
	c, err := r.peek()
	if err != nil {
		return err
	}
	if c != open { // null, or refused
		var v any
		if err = r.decode(&v); err == nil && v != nil {
			err = fmt.Errorf("%v where %c belongs", v, open)
		}
		return err
	}
	r.pos++
	begin()
	for c, err = r.peek(); err == nil && c != end; {
		if err = each(); err != nil {
			return err
		}
		if c, err = r.peek(); err == nil && c != end {
			err = r.expect(',')
		}
	}
	if err == nil {
		r.pos++ // past end
	}
	return err
}

// expect steps past c, which must be the next byte but whitespace, and
// past the whitespace after it, to the value that must follow.
func (r *Reader) expect(c byte) error {
	if got, err := r.peek(); err != nil || got != c {
		return cmp.Or(err, fmt.Errorf("invalid character %q where %q belongs", got, c))
	}
	r.pos++
	_, err := r.peek()
	return err
}

// peek steps over whitespace and returns the byte after it.
func (r *Reader) peek() (byte, error) {
	for {
		for ; r.pos < len(r.buf); r.pos++ {
			if c := r.buf[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, nil
			}
		}
		if !r.more() {
			return 0, r.err
		}
	}
}

// repeats steps past b if the bytes at the cursor start with it.
func (r *Reader) repeats(b []byte) bool {
	for len(r.buf)-r.pos < len(b) && r.more() {
	}
	if !bytes.HasPrefix(r.buf[r.pos:], b) {
		return false
	}
	r.pos += len(b)
	return true
}

// decode has encoding/json decode the value at the cursor into v,
// unknown fields refused, and steps past it. The decoder reads the
// window on into the file as it needs, so no value is taken before a
// byte after it, or the end, shows where it ends: a number cut 12|3 by
// a refill reads as 123.
func (r *Reader) decode(v any) error {
	dec := json.NewDecoder(&feed{r: r})
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	r.decodedBytes += int(dec.InputOffset())
	r.pos += int(dec.InputOffset())
	return nil
}

// feed hands a decoder the window from the cursor on.
type feed struct {
	r *Reader
	n int // bytes handed
}

func (f *feed) Read(p []byte) (int, error) {
	if f.r.pos+f.n == len(f.r.buf) && !f.r.more() {
		return 0, f.r.err
	}
	n := copy(p, f.r.buf[f.r.pos+f.n:])
	f.n += n
	return n, nil
}

// more reads on into the window, first moving the bytes from the cursor
// on to its front, and growing it if they fill it. It reports false
// once the file has ended or failed.
func (r *Reader) more() bool {
	if r.err != nil {
		return false
	}
	if r.pos > 0 {
		r.off += int64(r.pos)
		r.buf, r.pos = append(r.buf[:0], r.buf[r.pos:]...), 0
	}
	r.buf = slices.Grow(r.buf, 1)
	n, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf, r.err = r.buf[:len(r.buf)+n], err
	return n > 0 || err == nil
}
