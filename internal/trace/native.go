package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Native format:
//
//	magic   "LSPT" (4 bytes)
//	version uint16 (currently 1)
//	snaplen uint16
//	start   int64 (unix nanoseconds)
//	linklen uint16, link name bytes
//	records: time uint64 (ns offset), wirelen uint16, caplen uint16,
//	         caplen data bytes
//
// All integers are big-endian.

var nativeMagic = [4]byte{'L', 'S', 'P', 'T'}

const nativeVersion = 1

// Writer writes the native trace format.
type Writer struct {
	w    *bufio.Writer
	meta Meta
	n    int
}

// NewWriter writes a native-format header for meta to w and returns a
// Writer for appending records. Call Flush when done.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.SnapLen <= 0 {
		meta.SnapLen = DefaultSnapLen
	}
	if meta.SnapLen > 0xffff {
		return nil, fmt.Errorf("trace: snaplen %d too large", meta.SnapLen)
	}
	if len(meta.Link) > 0xffff {
		return nil, fmt.Errorf("trace: link name too long")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(nativeMagic[:]); err != nil {
		return nil, err
	}
	var hdr [14]byte
	binary.BigEndian.PutUint16(hdr[0:2], nativeVersion)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(meta.SnapLen))
	binary.BigEndian.PutUint64(hdr[4:12], uint64(meta.Start.UnixNano()))
	binary.BigEndian.PutUint16(hdr[12:14], uint16(len(meta.Link)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(meta.Link); err != nil {
		return nil, err
	}
	return &Writer{w: bw, meta: meta}, nil
}

// Write implements Sink.
func (w *Writer) Write(r Record) error {
	if len(r.Data) > w.meta.SnapLen {
		return fmt.Errorf("trace: record caplen %d exceeds snaplen %d", len(r.Data), w.meta.SnapLen)
	}
	if r.WireLen > 0xffff || r.WireLen < len(r.Data) {
		return fmt.Errorf("trace: bad wirelen %d for caplen %d", r.WireLen, len(r.Data))
	}
	// The header is built in the buffer's free space: a local array
	// would escape through Write, an allocation per record.
	hdr := binary.BigEndian.AppendUint64(w.w.AvailableBuffer(), uint64(r.Time))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(r.WireLen))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(r.Data)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(r.Data); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
