package trace

import (
	"fmt"
	"io"
)

// Reader is the strict policy over the codec, for all three formats:
// the first malformed record is returned as the error and input that
// ends inside a record wraps io.ErrUnexpectedEOF, so a caller can
// still choose to analyse the partial trace.
type Reader struct {
	w *window
	c codec
}

// NewReader parses the native-format header from r and returns a
// Reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) { return newReader(newWindow(r), FormatNative) }

// NewPcapReader parses the pcap global header from r. Either byte
// order and either timestamp resolution is accepted.
func NewPcapReader(r io.Reader) (*Reader, error) { return newReader(newWindow(r), FormatPcap) }

// NewERFReader returns a reader of ERF TYPE_HDLC_POS records. ERF has
// no file header; the first record's timestamp becomes the trace start.
func NewERFReader(r io.Reader) (*Reader, error) { return newReader(newWindow(r), FormatERF) }

func newReader(w *window, f Format) (*Reader, error) {
	r := &Reader{w: w, c: newCodec(f)}
	if err := r.c.readFileHeader(w); err != nil {
		return nil, err
	}
	return r, nil
}

// pull decodes the file header or the record at the front of w,
// reading more for as long as the codec asks for it. stNeedMore on
// return means src ended or failed first.
func (c *codec) pull(w *window, fileHdr bool, h *recHeader) (st status) {
	for {
		if fileHdr {
			st = c.fileHeader(w.buffered(), h)
		} else {
			st = c.record(w.buffered(), h)
		}
		if st != stNeedMore || !w.need(h.size) {
			return st
		}
	}
}

// readFileHeader decodes and consumes the file header at the front of w.
func (c *codec) readFileHeader(w *window) error {
	var h recHeader
	switch c.pull(w, true, &h) {
	case stNeedMore:
		return fmt.Errorf("trace: reading %v file header: %w", c.format, w.short())
	case stMalformed:
		return c.malformedErr(&h)
	}
	w.consume(h.size)
	return nil
}

// Meta implements Source. For pcap and ERF the trace start is the
// timestamp of the first record, so Meta is fully populated only after
// the first Next.
func (r *Reader) Meta() Meta { return r.c.meta }

// Next implements Source.
func (r *Reader) Next() (rec Record, err error) {
	if rec, err = r.Borrow(); err == nil {
		rec.Data = r.c.own(rec.Data)
	}
	return rec, err
}

// Borrow implements Borrower.
func (r *Reader) Borrow() (Record, error) {
	var h recHeader
	switch st := r.c.pull(r.w, false, &h); {
	case st == stOK:
		return r.c.lend(&h, r.w), nil
	case st == stMalformed:
		return Record{}, r.c.malformedErr(&h)
	case r.w.err == io.EOF && len(r.w.buffered()) == 0:
		return Record{}, io.EOF
	}
	return Record{}, fmt.Errorf("trace: reading %v record: %w", r.c.format, r.w.short())
}
