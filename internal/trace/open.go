package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"loopscope/internal/obs"
)

// OpenOptions configures Open. The zero value sniffs the format and
// reads strictly (no salvage).
type OpenOptions struct {
	// Format forces an on-disk format. FormatAuto sniffs native and
	// pcap magics; ERF records carry no magic, so ERF must be selected
	// explicitly (except under Salvage, whose auto-detection also
	// recognises plausible ERF headers).
	Format Format
	// Salvage routes ingestion through SalvageReader: corrupt regions
	// are skipped and decoding resynchronises on the next plausible
	// record instead of aborting.
	Salvage bool
	// MaxDecodeErrors is the salvage error budget (<= 0: unlimited).
	MaxDecodeErrors int
	// Metrics, when non-nil, meters the returned source: records,
	// bytes, capture-loss gaps, and (under Salvage) live decode-health
	// gauges flow into the registry as the source is consumed. Nil
	// keeps the source unwrapped — the uninstrumented default.
	Metrics *obs.Registry
}

// Open opens a trace for reading, concentrating the open/sniff/salvage
// policy that every tool shares: the input may be gzipped (sniffed and
// unwrapped transparently), the format is sniffed from the magic bytes
// unless forced, and with opts.Salvage the reader tolerates damaged
// regions. The path "-" reads the trace from standard input, so piped
// captures work without a temp file.
//
// The returned Source owns the file handle; close it with CloseSource
// (or a direct io.Closer assertion) when done. The *DecodeStats is
// non-nil only under Salvage; it is a live view that fills in as the
// source is consumed, so read it after draining.
func Open(path string, opts OpenOptions) (Source, *DecodeStats, error) {
	if path == "-" {
		src, stats, err := OpenStream(os.Stdin, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("reading stdin: %w", err)
		}
		return src, stats, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, stats, err := OpenStream(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &fileSource{Source: src, f: f, lender: Lender(src)}, stats, nil
}

// OpenStream is Open over an arbitrary reader: the same gzip and
// format sniffing, done on the window's first bytes, so nothing is ever
// seeked or reopened and pipes, sockets and stdin work. The caller
// keeps ownership of r; the returned Source does not close it.
func OpenStream(r io.Reader, opts OpenOptions) (Source, *DecodeStats, error) {
	w := newWindow(r)
	if !w.need(4) {
		return nil, nil, fmt.Errorf("reading magic: %w", w.short())
	}
	if b := w.buffered(); b[0] == 0x1f && b[1] == 0x8b {
		gz, err := gzip.NewReader(w)
		if err != nil {
			return nil, nil, fmt.Errorf("opening gzip stream: %w", err)
		}
		if w = newWindow(gz); !w.need(4) {
			return nil, nil, fmt.Errorf("reading magic inside gzip: %w", w.short())
		}
	}
	if opts.Salvage {
		src, err := newSalvageReader(w, SalvageOptions{
			Format:    opts.Format,
			MaxErrors: opts.MaxDecodeErrors,
		})
		if err != nil {
			return nil, nil, err
		}
		return MeterSource(src, opts.Metrics, &src.stats), &src.stats, nil
	}
	f := opts.Format
	if f == FormatAuto {
		if f = sniff(w.buffered()); f == FormatAuto {
			return nil, nil, fmt.Errorf("not a native or pcap trace (optionally gzipped): magic % x", w.buffered()[:4])
		}
	}
	src, err := newReader(w, f)
	if err != nil {
		return nil, nil, err
	}
	return MeterSource(src, opts.Metrics, nil), nil, nil
}

// fileSource couples a Source with the file handle it reads from.
type fileSource struct {
	Source
	f      *os.File
	lender Borrower
}

// Borrow implements Borrower, lending when the wrapped source does.
func (s *fileSource) Borrow() (Record, error) { return s.lender.Borrow() }

// Close implements io.Closer: the wrapped source first (a metered one
// has counts to publish), then the file.
func (s *fileSource) Close() error {
	CloseSource(s.Source)
	return s.f.Close()
}

// Progress implements Progresser: the file offset consumed so far and
// the file's total size. For gzipped traces both figures are in
// compressed bytes (the only offsets the file handle knows), which is
// exactly what a percent-done/ETA computation wants. The offset is
// read from the OS file position, so buffered readers make it run a
// little ahead of the records actually delivered; progress reporting
// tolerates that slack.
func (s *fileSource) Progress() (offset, size int64) {
	off, err := s.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0
	}
	st, err := s.f.Stat()
	if err != nil {
		return off, 0
	}
	return off, st.Size()
}

// Progresser is implemented by sources that can report how far into
// the input they are (trace files opened with Open).
type Progresser interface {
	Progress() (offset, size int64)
}

// ProgressOf returns src's progress function, or nil when the source
// cannot report byte offsets (in-memory sources, bare readers).
func ProgressOf(src Source) func() (offset, size int64) {
	if p, ok := src.(Progresser); ok {
		return p.Progress
	}
	return nil
}

// CloseSource closes src if Open gave it something to close; sources
// without an underlying file are a no-op.
func CloseSource(src Source) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
