package fibscan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"loopscope/internal/routing"
)

// FileVersion is the current snapshot file format version.
const FileVersion = 1

// SnapshotFile is the on-disk snapshot format shared by the simulator
// (backbonesim -fib-snapshots) and the cmd/fibscan CLI: one JSON
// document holding a timeline of FIB captures in ascending time order.
type SnapshotFile struct {
	Version int `json:"version"`
	// Network labels the captured network (scenario name).
	Network   string     `json:"network,omitempty"`
	Snapshots []Snapshot `json:"snapshots"`
}

// validate checks the structural invariants a reader relies on.
func (f *SnapshotFile) validate() error {
	if f.Version != FileVersion {
		return fmt.Errorf("fibscan: unsupported snapshot file version %d (want %d)", f.Version, FileVersion)
	}
	for i := 1; i < len(f.Snapshots); i++ {
		if f.Snapshots[i].TakenNs < f.Snapshots[i-1].TakenNs {
			return fmt.Errorf("fibscan: snapshots out of order at index %d (%d < %d)",
				i, f.Snapshots[i].TakenNs, f.Snapshots[i-1].TakenNs)
		}
	}
	return nil
}

// Encode writes the file as indented JSON, byte for byte what
// encoding/json's Encoder writes with SetIndent("", " "): the Reader
// decodes a router again only when its bytes change, so the bytes of an
// unchanged table must not depend on who wrote them. It is written in
// one pass over the fixed schema, a router at a time, into one buffer
// that goes to w whenever it holds encodeFlush bytes; encoding/json
// itself is reached only for strings that need escaping.
func (f *SnapshotFile) Encode(w io.Writer) error {
	if f.Version == 0 {
		f.Version = FileVersion
	}
	if err := f.validate(); err != nil {
		return err
	}
	// Twice the flush size: a router of up to encodeFlush bytes fits
	// behind an unflushed buffer without growing it.
	b := make([]byte, 0, 2*encodeFlush)
	b = strconv.AppendInt(append(b, "{\n \"version\": "...), int64(f.Version), 10)
	if f.Network != "" {
		b = appendString(append(b, ",\n \"network\": "...), f.Network)
	}
	b = append(b, ",\n \"snapshots\": "...)
	for i := range f.Snapshots {
		s := &f.Snapshots[i]
		b = strconv.AppendInt(append(openItem(b, i, 2), "{\n   \"takenNs\": "...), s.TakenNs, 10)
		b = append(b, ",\n   \"routers\": "...)
		for j := range s.Routers {
			b = appendRouter(openItem(b, j, 4), &s.Routers[j])
			if len(b) >= encodeFlush {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		b = append(closeList(b, len(s.Routers), s.Routers == nil, 4), "\n  }"...)
	}
	b = append(closeList(b, len(f.Snapshots), f.Snapshots == nil, 2), "\n}\n"...)
	_, err := w.Write(b)
	return err
}

// encodeFlush is how many bytes Encode gathers before it writes them.
const encodeFlush = 64 << 10

// indent is a newline and the deepest indentation Encode writes, a
// route's keys; indent[:1+d] starts a line at depth d.
const indent = "\n       "

// openItem starts element i of a list whose elements sit at depth d.
func openItem(b []byte, i, d int) []byte {
	if i == 0 {
		return append(append(b, '['), indent[:1+d]...)
	}
	return append(append(b, ','), indent[:1+d]...)
}

// closeList ends a list of n elements at depth d that openItem began;
// a nil list is null and an empty one [], as encoding/json writes them.
func closeList(b []byte, n int, isNil bool, d int) []byte {
	switch {
	case isNil:
		return append(b, "null"...)
	case n == 0:
		return append(b, "[]"...)
	}
	return append(append(b, indent[:d]...), ']')
}

// appendRouter appends one router object at depth 4.
func appendRouter(b []byte, r *RouterFIB) []byte {
	b = appendString(append(b, "{\n     \"name\": "...), r.Name)
	b = strconv.AppendUint(append(b, ",\n     \"revision\": "...), r.Revision, 10)
	b = append(b, ",\n     \"routes\": "...)
	for i := range r.Routes {
		b = appendPrefix(append(openItem(b, i, 6), "{\n       \"prefix\": "...), r.Routes[i].Prefix)
		b = appendString(append(b, ",\n       \"nextHop\": "...), r.Routes[i].NextHop)
		b = append(b, "\n      }"...)
	}
	b = closeList(b, len(r.Routes), r.Routes == nil, 6)
	if len(r.Locals) > 0 {
		b = append(b, ",\n     \"locals\": "...)
		for i, p := range r.Locals {
			b = appendPrefix(openItem(b, i, 6), p)
		}
		b = closeList(b, len(r.Locals), false, 6)
	}
	return append(b, "\n    }"...)
}

// appendPrefix appends p quoted, as Prefix.String spells it.
func appendPrefix(b []byte, p routing.Prefix) []byte {
	b = strconv.AppendUint(append(b, '"'), uint64(p.Addr[0]), 10)
	for _, o := range p.Addr[1:] {
		b = strconv.AppendUint(append(b, '.'), uint64(o), 10)
	}
	return append(strconv.AppendInt(append(b, '/'), int64(p.Bits), 10), '"')
}

// appendString appends s as a JSON string. Printable ASCII that JSON
// and HTML leave alone is copied; anything else goes through
// json.Marshal, whose escaping (HTML characters, U+2028 and U+2029,
// invalid UTF-8) the Encoder applies.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// decode reads and validates a snapshot file: what a Reader yields,
// collected. Routers whose bytes repeat from one snapshot to the next
// share their tables (see Reader), so the result is read-only.
func decode(r io.Reader) (*SnapshotFile, error) {
	rd := NewReader(r)
	err := rd.Each(func(s *Snapshot) error {
		rd.file.Snapshots = append(rd.file.Snapshots, *s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rd.file, nil
}

// WriteFile writes the snapshot file to path.
func WriteFile(path string, f *SnapshotFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadFile reads and validates the snapshot file at path.
func ReadFile(path string) (*SnapshotFile, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return decode(in)
}
