// Package trace defines the packet-trace record model used throughout
// loopscope and implements three on-disk formats: a compact native
// format, the classic libpcap format (LINKTYPE_RAW, so records are
// bare IPv4 packets, matching the IP-header-only traces in the paper)
// and ERF, the format the paper's DAG cards wrote.
//
// Writing is one Writer per format (native.go, pcap.go, erf.go).
// Reading is one codec (codec.go: the only code that decodes an
// on-disk field, and the table of input rules) and one byte window
// (window.go) under three policies: strict and salvaging, which Open
// puts under one tap (File), and the TailReader for growing files.
// Every source lends its records: Source.Borrow fills the caller's
// Record in place, so a record is written once, by the codec, and
// copied only by an owning read, through one slab.
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
	// reader of this package cap == len. Borrow fills in a view of the
	// source's buffer, valid only until the next read of the same
	// source; ReadAll and the other owning reads hand out a copy that
	// shares a backing array with neighbouring records and that nothing
	// overwrites.
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

// Source yields trace records in capture order. Borrow writes the next
// record into *rec and returns io.EOF after the last one. It lends: the
// record's Data is a view of the source's buffer, valid until the next
// Borrow on the same source. On any error, io.EOF included, *rec is left
// as it was. A consumer declares one Record outside its read loop and
// keeps nothing of it past the next read; one that keeps records reads
// through ReadAll, which copies them. Borrow fills the caller's record
// rather than return one: a returned Record is copied again at every
// frame between the codec and the consumer, and those copies cost more
// than the framing.
type Source interface {
	Meta() Meta
	Borrow(rec *Record) error
}

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

// Borrow implements Source. The records are the caller's already, so
// lending one hands it out as it is.
func (s *SliceSource) Borrow(rec *Record) error {
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// ReadAll drains a Source into memory: the one owning read of a whole
// trace. It reads through a Batcher, whose fixed-size batches borrow
// each record into its slot and copy its Data into slabs the records
// share, and at the end copies the batches once into a result of exact
// size, where a growing slice would copy every record again at each
// doubling.
func ReadAll(src Source) ([]Record, error) {
	b, n := NewBatcher(src, 0), 0
	var batches [][]Record
	for b.err == nil { // Next keeps the error that ended the source
		recs, _ := b.Next()
		batches, n = append(batches, recs), n+len(recs)
	}
	all := make([]Record, 0, n)
	for _, recs := range batches {
		all = append(all, recs...)
	}
	if b.err == io.EOF {
		return all, nil
	}
	return all, b.err
}

// slabLen is how much a slab allocates at a time to cut captures from:
// some six hundred of the paper's 40-byte snapshots.
const slabLen = 32 << 10

// slab is the unused rest of the allocation own cuts Data from. Every
// owning read (ReadAll, Batcher, TailReader.Next, File.Next) copies a
// borrowed record through one.
type slab []byte

// own copies a borrowed capture into the slab, with cap == len so that
// an append cannot reach the next record's bytes. A slab is written
// once and never reused, so it lives exactly as long as some record cut
// from it does. A capture over a quarter slab gets its own allocation
// rather than strand the rest of the current slab. It takes and returns
// only the bytes: a whole Record passed in and out of a call that does
// not inline is copied through the stack both ways.
func (s *slab) own(lent []byte) []byte {
	n := len(lent)
	var data []byte
	if n > slabLen/4 {
		data = make([]byte, n)
	} else {
		if n > len(*s) {
			*s = make([]byte, slabLen)
		}
		data, *s = (*s)[:n:n], (*s)[n:]
	}
	copy(data, lent)
	return data
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
