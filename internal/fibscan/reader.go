package fibscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Reader streams a snapshot file, so that a consumer holding one
// snapshot holds one snapshot however long the timeline. The file and
// snapshot objects are walked token by token; each router object is
// taken as raw bytes and, when they equal the bytes of the router at
// the same index of the previous snapshot, the previous RouterFIB is
// handed out again — equal bytes decode to equal tables, whatever the
// revision field says — shared and therefore read-only. Every other
// router goes through encoding/json with unknown fields disallowed.
type Reader struct {
	dec *json.Decoder
	// file holds the document's scalar fields; Snapshots is non-nil
	// once the key held an array, and filled only by Decode.
	file   SnapshotFile
	index  int // snapshots read
	lastNs int64

	prev    []RouterFIB // routers of the previous snapshot
	prevRaw [][]byte    // and the bytes each was decoded from
	raw     json.RawMessage
	decoded int // routers handed to encoding/json
}

// NewReader returns a Reader over the snapshot file in r.
func NewReader(r io.Reader) *Reader { return &Reader{dec: json.NewDecoder(r)} }

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
			return r.dec.Decode(&r.file.Version)
		case "network":
			return r.dec.Decode(&r.file.Network)
		case "snapshots":
			return r.within('[', func() { r.file.Snapshots = []Snapshot{} }, func() error {
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
		if _, more := r.dec.Token(); more != io.EOF { // a token or a syntax error
			err = errTrailingData
		}
	}
	if err == io.EOF { // the input ran out inside the document
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("fibscan: snapshot file, offset %d: %w", r.dec.InputOffset(), err)
	}
	return r.file.Validate()
}

// snapshot reads one element of the snapshots array, reusing the
// previous snapshot's RouterFIB wherever a router's bytes repeat.
func (r *Reader) snapshot() (*Snapshot, error) {
	s := new(Snapshot)
	err := r.object(func(key string) error {
		switch key {
		case "takenNs":
			return r.dec.Decode(&s.TakenNs)
		case "routers":
			return r.within('[', func() { s.Routers = make([]RouterFIB, 0, len(r.prev)) }, func() error {
				if err := r.dec.Decode(&r.raw); err != nil {
					return err
				}
				n := len(s.Routers)
				if n < len(r.prev) && bytes.Equal(r.raw, r.prevRaw[n]) {
					s.Routers = append(s.Routers, r.prev[n])
					return nil
				}
				var rf RouterFIB
				d := json.NewDecoder(bytes.NewReader(r.raw))
				d.DisallowUnknownFields()
				r.decoded++
				if err := d.Decode(&rf); err != nil {
					return fmt.Errorf("snapshot %d, router %d: %w", r.index, n, err)
				}
				s.Routers = append(s.Routers, rf)
				if n == len(r.prevRaw) {
					r.prevRaw = append(r.prevRaw, nil)
				}
				r.prevRaw[n] = append(r.prevRaw[n][:0], r.raw...)
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

// object walks the object the decoder stands before, calling field at
// each key's value and refusing a key met twice.
func (r *Reader) object(field func(key string) error) error {
	seen := make(map[string]bool, 3)
	return r.within('{', func() {}, func() error {
		tok, err := r.dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string) // the decoder yields nothing else in key position
		if seen[key] {
			return fmt.Errorf("%w %q", errDuplicateKey, key)
		}
		seen[key] = true
		return field(key)
	})
}

// within walks the object or array — open says which — the decoder
// stands before: begin at the opening delimiter, each before every
// member. Like encoding/json it takes null for a value left out (no
// keys, a nil slice), and then calls neither.
func (r *Reader) within(open json.Delim, begin func(), each func() error) error {
	tok, err := r.dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != open {
		return fmt.Errorf("%v where %v belongs", tok, open)
	}
	begin()
	for r.dec.More() {
		if err := each(); err != nil {
			return err
		}
	}
	_, err = r.dec.Token() // the closing delimiter
	return err
}
