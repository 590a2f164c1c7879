package trace

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// salvageReader is a fault-tolerant Source over a possibly damaged
// trace file (OpenOptions.Salvage). Where the strict reader aborts on
// the first malformed byte, salvageReader treats decode failures as damage to
// route around: it skips forward byte by byte until it finds the next
// plausible record header, validates the candidate against timestamp
// continuity and a one-record lookahead, and resumes decoding there.
// A truncated final record is tolerated (reported in DecodeStats, not
// as an error), and an optional error budget bounds how much damage
// is acceptable before the trace is declared unusable.
//
// salvageReader is deliberately stricter per record than the strict
// reader: implausible header fields (caplen beyond the snapshot
// length, ERF record lengths beyond ERF's practical maximum,
// timestamps that jump backwards or implausibly far forward) are
// treated as corruption rather than obeyed, because obeying a corrupt length field swallows the
// good records that follow it.
//
// The file-level header (native magic+header, pcap global header)
// must itself be intact: without it there is no snapshot length or
// byte order to validate records against. ERF has no file header, so
// ERF salvage can start anywhere.

// ErrErrorBudget is returned (wrapped) by a salvaging source's Borrow
// when the number of distinct decode errors exceeds
// OpenOptions.MaxDecodeErrors.
var ErrErrorBudget = errors.New("trace: decode error budget exceeded")

// DecodeStats describes how a salvage pass went.
type DecodeStats struct {
	// Records is the total number of records decoded successfully.
	Records int
	// Salvaged counts the records decoded after the first resync —
	// records a strict reader would have thrown away.
	Salvaged int
	// Errors is the number of distinct corrupt regions encountered
	// (one per resync event, however many bytes it spanned).
	Errors int
	// Resyncs is the number of times decoding recovered onto a
	// plausible record boundary after an error.
	Resyncs int
	// BytesSkipped is the total bytes discarded while scanning for
	// record boundaries, including a truncated tail.
	BytesSkipped int64
	// TruncatedTail reports that the trace ended in the middle of a
	// record.
	TruncatedTail bool
	// LossEvents counts records carrying a non-zero ERF loss
	// counter; LostRecords sums those counters. Both stay zero for
	// native and pcap traces, which do not carry loss counters.
	LossEvents  int
	LostRecords int
}

// salvageOptions configures a salvageReader. The zero value selects
// format auto-detection, an unlimited error budget, and a one-hour
// resync gap.
type salvageOptions struct {
	// Format forces a specific on-disk format; FormatAuto sniffs.
	Format Format
	// MaxErrors is the error budget: the maximum number of distinct
	// corrupt regions tolerated before Borrow fails with
	// ErrErrorBudget. Zero or negative means unlimited.
	MaxErrors int
	// MaxGap bounds how far forward a record's timestamp may jump
	// past the last good record and still be considered plausible
	// (applied both in-sync and to resync candidates). <= 0 selects
	// one hour.
	MaxGap time.Duration
}

// erfMaxRlen bounds ERF record lengths during salvage: jumbo-frame
// captures stay far below 16 KiB per record.
const erfMaxRlen = 1 << 14

type salvageReader struct {
	w     *window
	c     codec
	opts  salvageOptions
	stats DecodeStats

	syncing bool // currently scanning for a record boundary

	// last is the timestamp continuity anchor: the newest delivered
	// record's codec timestamp. It is provisional until the record
	// after it decodes: when an error region opens, the record just
	// before it is suspect (a junk record whose decoded time landed
	// plausibly ahead of the real stream would otherwise poison the
	// continuity anchor for everything that follows), so the anchor
	// rolls back to prev, the last record with a confirmed successor.
	last, prev int64
}

// newSalvageReader parses the file-level header eagerly, so it fails
// if that is missing or corrupt (record-level damage is what salvage
// handles).
func newSalvageReader(w *window, opts salvageOptions) (*salvageReader, error) {
	if opts.MaxGap <= 0 {
		opts.MaxGap = time.Hour
	}
	s := &salvageReader{w: w, c: newCodec(opts.Format), opts: opts}
	if opts.Format == FormatAuto {
		// ERF has no magic, so the last resort is its record decode:
		// one whole plausible header at byte zero.
		w.need(erfHeaderLen)
		b := w.buffered()
		if s.c = newCodec(sniff(b)); s.c.format == FormatAuto {
			s.c = newCodec(FormatERF)
			var h recHeader
			if st := s.c.record(b, &h); len(b) < erfHeaderLen || st == stMalformed || !s.plausible(&h) {
				if len(b) == 0 {
					return nil, fmt.Errorf("trace: empty input")
				}
				return nil, fmt.Errorf("trace: unrecognized trace format (first bytes % x)", b[:min(len(b), 8)])
			}
		}
	}
	if err := s.c.readFileHeader(w); err != nil {
		return nil, err
	}
	return s, nil
}

// Meta implements Source. Like the strict reader's, Start is
// populated only after the first record for formats without a file
// header.
func (s *salvageReader) Meta() Meta { return s.c.meta }

// plausible is salvage's deliberately stricter reading of a header the
// codec has already decoded: fields a strict reader obeys are treated
// as corruption here when no real capture would carry them.
func (s *salvageReader) plausible(h *recHeader) bool {
	// wireLen must be positive: no real packet is 0 bytes on the
	// wire, and all-zero regions would otherwise parse as endless
	// chains of empty records.
	if h.ts < 0 || h.fracBad || h.wireLen <= 0 {
		return false
	}
	switch s.c.format {
	case FormatPcap:
		snap := s.c.meta.SnapLen
		return h.capLen() <= h.wireLen && h.wireLen <= maxPcapCapLen && (snap <= 0 || h.capLen() <= snap)
	case FormatERF:
		// No caplen <= wirelen rule: DAG cards pad rlen to a multiple
		// of eight, so intact records carry a few bytes more than wlen.
		return h.size <= erfMaxRlen
	}
	return h.capLen() <= h.wireLen
}

// timePlausible checks a record's timestamp against the last good
// record: capture order is non-decreasing, and a forward jump beyond
// MaxGap means the header decoded garbage as time. The forward bound
// applies in-sync too — a record whose damaged timestamp still parses
// would otherwise be accepted and poison the continuity anchor,
// making every real record after it look like it runs backwards and
// leaving no resync point for the rest of the file. Before any good
// record exists there is nothing to anchor to (the pcap/ERF
// epoch-based timestamps cover their whole u32 range), so the
// lookahead check alone must carry the first resync.
func (s *salvageReader) timePlausible(h *recHeader) bool {
	if !s.c.started {
		return true
	}
	return h.ts >= s.last && h.ts-s.last <= int64(s.opts.MaxGap)
}

// skip discards n bytes of a corrupt region.
func (s *salvageReader) skip(n int) {
	s.w.consume(n)
	s.stats.BytesSkipped += int64(n)
}

// Borrow implements Source. Decode errors are consumed internally
// (skipping to the next plausible record) unless the error budget is
// exhausted, in which case Borrow fails with an error wrapping
// ErrErrorBudget.
func (s *salvageReader) Borrow(rec *Record) error {
	for {
		if !s.w.need(s.c.recHdr) {
			n := len(s.w.buffered())
			switch {
			case n > 0:
				// Partial header at EOF: truncated tail.
				return s.truncatedTail(n)
			case s.w.err != io.EOF:
				return fmt.Errorf("trace: salvage read: %w", s.w.err)
			}
			return io.EOF
		}
		var h recHeader
		st := s.c.record(s.w.buffered(), &h)
		if st == stMalformed || !s.plausible(&h) {
			// Implausible header: corruption. Skip a byte and scan.
			if err := s.beginRegion(); err != nil {
				return err
			}
			s.skip(1)
			continue
		}
		if !s.w.need(h.size) {
			// A record (or resync candidate) the file ends inside of.
			return s.truncatedTail(len(s.w.buffered()))
		}

		if s.syncing {
			// Validate the candidate: plausible timestamp and a
			// plausible next header (or clean end of file).
			if !s.timePlausible(&h) || !s.lookaheadOK(h.size) {
				s.skip(1)
				continue
			}
			s.syncing = false
			s.stats.Resyncs++
		} else if !s.timePlausible(&h) {
			// A timestamp running backwards (or jumping implausibly
			// far forward) mid-stream means header bytes were damaged
			// — either in this record or in the one before it (whose
			// acceptance moved the anchor somewhere implausible, and
			// which the region-opening rollback just withdrew). Do
			// not consume: the same bytes are re-judged against the
			// rolled-back anchor as a resync candidate.
			if err := s.beginRegion(); err != nil {
				return err
			}
			continue
		}

		s.c.lend(&h, s.w, rec)
		s.prev, s.last = s.last, h.ts
		s.stats.Records++
		if s.stats.Resyncs > 0 {
			s.stats.Salvaged++
		}
		if h.lost > 0 {
			s.stats.LossEvents++
			s.stats.LostRecords += h.lost
		}
		return nil
	}
}

// lookaheadOK confirms that the bytes immediately after an n-byte
// resync candidate hold another plausible record header. A file that
// ends before one whole header also passes: nothing contradicts the
// candidate, and a stub after it becomes the truncated tail.
func (s *salvageReader) lookaheadOK(n int) bool {
	if !s.w.need(n + s.c.recHdr) {
		return true
	}
	var h recHeader
	st := s.c.record(s.w.buffered()[n:], &h)
	return st != stMalformed && s.plausible(&h)
}

// beginRegion opens a corrupt region (idempotent while scanning):
// it charges the error budget and rolls the timestamp anchor back.
func (s *salvageReader) beginRegion() error {
	if s.syncing {
		return nil
	}
	s.syncing = true
	// The record decoded just before this region is suspect — its
	// successor failed to parse — so distrust its timestamp and
	// anchor continuity on its confirmed predecessor instead. (With
	// fewer than two records decoded there is no confirmed
	// predecessor; keep the anchor as-is.)
	if s.stats.Records >= 2 {
		s.last = s.prev
	}
	s.stats.Errors++
	if s.opts.MaxErrors > 0 && s.stats.Errors > s.opts.MaxErrors {
		return fmt.Errorf("%w: %d corrupt regions (budget %d)",
			ErrErrorBudget, s.stats.Errors, s.opts.MaxErrors)
	}
	return nil
}

// truncatedTail consumes the n remaining bytes as a truncated final
// record and ends the stream.
func (s *salvageReader) truncatedTail(n int) error {
	s.stats.TruncatedTail = true
	s.skip(n)
	return io.EOF
}
