package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// libpcap file format support. Records are written with
// LINKTYPE_RAW (101): each record body is a bare IPv4 packet, which is
// how IP-header-only backbone traces are conventionally distributed.

const (
	pcapMagicMicros = 0xa1b2c3d4
	pcapMagicNanos  = 0xa1b23c4d
	// linkTypeRaw is the pcap link type for raw IP packets.
	linkTypeRaw = 101
)

// PcapWriter writes a libpcap capture file with nanosecond timestamps.
type PcapWriter struct {
	w    *bufio.Writer
	meta Meta
}

// NewPcapWriter writes a pcap global header to w and returns a writer
// for appending records. Call Flush when done.
func NewPcapWriter(w io.Writer, meta Meta) (*PcapWriter, error) {
	if meta.SnapLen <= 0 {
		meta.SnapLen = DefaultSnapLen
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)  // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4)  // version minor
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // thiszone
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(meta.SnapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &PcapWriter{w: bw, meta: meta}, nil
}

// Write implements Sink.
func (w *PcapWriter) Write(r Record) error {
	if len(r.Data) > w.meta.SnapLen {
		return fmt.Errorf("trace: record caplen %d exceeds snaplen %d", len(r.Data), w.meta.SnapLen)
	}
	abs := w.meta.Start.Add(r.Time)
	// Built in the buffer's free space, as Writer.Write does.
	hdr := binary.LittleEndian.AppendUint32(w.w.AvailableBuffer(), uint32(abs.Unix()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(abs.Nanosecond()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(r.Data)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.WireLen))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(r.Data); err != nil {
		return err
	}
	return nil
}

// Flush flushes buffered data to the underlying writer.
func (w *PcapWriter) Flush() error { return w.w.Flush() }
