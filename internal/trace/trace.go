// Package trace defines the packet-trace record model used throughout
// loopscope and implements three on-disk formats: a compact native
// format, the classic libpcap format (LINKTYPE_RAW, so records are
// bare IPv4 packets, matching the IP-header-only traces in the paper)
// and ERF, the format the paper's DAG cards wrote.
//
// Writing is one Writer per format (native.go, pcap.go, erf.go).
// Reading is one codec (codec.go: the only code that decodes an
// on-disk field, and the table of input rules) and one byte window
// (window.go) under three policies: the strict Reader, the
// SalvageReader for damaged files and the TailReader for growing ones.
//
// A trace is a time-ordered sequence of Records captured on a single
// unidirectional link. Like the Sprint traces the paper analyses,
// records carry only the first SnapLen bytes of each packet (40 by
// default: the IPv4 header plus the transport header).
package trace

import (
	"fmt"
	"io"
	"time"
)

// DefaultSnapLen is the per-packet snapshot length used by the paper's
// capture infrastructure: 20 bytes of IP header + 20 bytes of
// transport header.
const DefaultSnapLen = 40

// Record is one captured packet.
type Record struct {
	// Time is the capture timestamp as an offset from the trace
	// start.
	Time time.Duration
	// WireLen is the original packet length on the wire.
	WireLen int
	// Data holds the captured snapshot (at most the trace's SnapLen
	// bytes, never more than WireLen). Treat it as read-only; from a
	// reader of this package cap == len. Next hands out a copy that
	// shares a backing array with neighbouring records and that nothing
	// overwrites; Borrow hands out a view of the reader's buffer, valid
	// only until the next Borrow or Next on the same source.
	Data []byte
	// Lost counts packets the capture hardware dropped immediately
	// before this record (the ERF per-record loss counter). Only the
	// ERF format carries it on disk; native and pcap traces read
	// back with Lost == 0.
	Lost int
}

// Meta describes a trace.
type Meta struct {
	// Link names the monitored link, e.g. "backbone1".
	Link string
	// Start is the absolute capture start time.
	Start time.Time
	// SnapLen is the per-packet snapshot limit in bytes.
	SnapLen int
}

// Source yields trace records in capture order. Next returns io.EOF
// after the last record.
type Source interface {
	Meta() Meta
	Next() (Record, error)
}

// Borrower is implemented by sources that can lend records: Borrow is
// Next without the copy, returning a record whose Data is a view of the
// source's buffer, valid until the next Borrow or Next on the same
// source. A consumer that keeps nothing of a record past its next read
// borrows; one that keeps records calls Next.
type Borrower interface {
	Borrow() (Record, error)
}

// Lender returns src as a Borrower: src itself when it lends records,
// otherwise one whose Borrow is src's Next. It is an interface and not
// a func because a method value adds a closure call per record.
func Lender(src Source) Borrower {
	if b, ok := src.(Borrower); ok {
		return b
	}
	return nextLender{src}
}

type nextLender struct{ Source }

func (l nextLender) Borrow() (Record, error) { return l.Next() }

// Sink consumes trace records in capture order.
type Sink interface {
	Write(Record) error
}

// SliceSource adapts an in-memory record slice to Source. It is the
// workhorse for tests and for pipelines that keep the whole trace in
// memory.
type SliceSource struct {
	meta Meta
	recs []Record
	pos  int
}

// NewSliceSource returns a Source over recs with the given metadata.
func NewSliceSource(meta Meta, recs []Record) *SliceSource {
	if meta.SnapLen == 0 {
		meta.SnapLen = DefaultSnapLen
	}
	return &SliceSource{meta: meta, recs: recs}
}

// Meta implements Source.
func (s *SliceSource) Meta() Meta { return s.meta }

// Next implements Source.
func (s *SliceSource) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Borrow implements Borrower. The records are the caller's already, so
// lending them is Next, and Lender returns the source itself.
func (s *SliceSource) Borrow() (Record, error) { return s.Next() }

// Reset rewinds the source to the first record.
func (s *SliceSource) Reset() { s.pos = 0 }

// ReadAll drains a Source into memory.
func ReadAll(src Source) ([]Record, error) {
	var recs []Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}

// Validator checks the structural invariants of a record sequence one
// record at a time: non-decreasing timestamps and caplen <= wirelen.
// The zero value is ready for the first record.
type Validator struct {
	n    int
	last time.Duration
}

// Check returns the violation the next record commits, if any.
func (v *Validator) Check(r Record) error {
	i := v.n
	v.n++
	if r.Time < v.last {
		return fmt.Errorf("trace: record %d goes back in time (%v < %v)", i, r.Time, v.last)
	}
	v.last = r.Time
	if len(r.Data) > r.WireLen {
		return fmt.Errorf("trace: record %d caplen %d exceeds wirelen %d", i, len(r.Data), r.WireLen)
	}
	return nil
}

// Validate runs a Validator over recs and returns the first violation
// found.
func Validate(recs []Record) error {
	var v Validator
	for _, r := range recs {
		if err := v.Check(r); err != nil {
			return err
		}
	}
	return nil
}
