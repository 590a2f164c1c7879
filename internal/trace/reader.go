package trace

import (
	"fmt"
	"io"
)

// reader is the strict policy over the codec, for all three formats:
// the first malformed record is returned as the error and input that
// ends inside a record wraps io.ErrUnexpectedEOF, so a caller can
// still choose to analyse the partial trace.
type reader struct {
	w *window
	c codec
}

func newReader(w *window, f Format) (*reader, error) {
	r := &reader{w: w, c: newCodec(f)}
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
// the first Borrow.
func (r *reader) Meta() Meta { return r.c.meta }

// Borrow implements Source.
func (r *reader) Borrow() (Record, error) {
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
