package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ERF (Extensible Record Format) support. The paper's traces were
// captured by Endace DAG cards on Packet-over-SONET links, which write
// ERF TYPE_HDLC_POS records: a 16-byte record header, the 4-byte
// PPP/HDLC framing, then the captured IP bytes. Supporting the format
// the original rigs produced lets the detector consume such archives
// directly.
//
// Record layout (legacy ERF, no extension headers):
//
//	ts     uint64 little-endian fixed-point: high 32 bits seconds
//	       since the UNIX epoch, low 32 bits fractional seconds
//	type   uint8 (1 = TYPE_HDLC_POS)
//	flags  uint8
//	rlen   uint16 big-endian: total record length incl. header
//	lctr   uint16 big-endian: loss counter
//	wlen   uint16 big-endian: wire length
//	payload (rlen - 16 bytes): 4-byte HDLC header + IP snapshot

// erfHeaderLen is the fixed ERF record header size.
const erfHeaderLen = 16

// erfTypeHDLCPOS is the PoS HDLC record type.
const erfTypeHDLCPOS = 1

// hdlcHeaderLen is the PPP/HDLC framing before the IP header.
const hdlcHeaderLen = 4

// hdlcIPv4 is the framing for IPv4 in PPP-over-SONET: address 0xFF,
// control 0x03, protocol 0x0021 (PPP IP) — the conventional encoding
// DAG PoS captures carry.
var hdlcIPv4 = [4]byte{0xff, 0x03, 0x00, 0x21}

// ERFWriter writes ERF TYPE_HDLC_POS records.
type ERFWriter struct {
	w    *bufio.Writer
	meta Meta
	n    int
}

// NewERFWriter returns a writer; ERF has no file header, so records
// begin immediately. Call Flush when done.
func NewERFWriter(w io.Writer, meta Meta) (*ERFWriter, error) {
	if meta.SnapLen <= 0 {
		meta.SnapLen = DefaultSnapLen
	}
	return &ERFWriter{w: bufio.NewWriterSize(w, 1<<16), meta: meta}, nil
}

// Write implements Sink.
func (w *ERFWriter) Write(r Record) error {
	if len(r.Data) > w.meta.SnapLen {
		return fmt.Errorf("trace: record caplen %d exceeds snaplen %d", len(r.Data), w.meta.SnapLen)
	}
	rlen := erfHeaderLen + hdlcHeaderLen + len(r.Data)
	if rlen > math.MaxUint16 {
		return fmt.Errorf("trace: ERF record too long: %d", rlen)
	}
	abs := w.meta.Start.Add(r.Time)
	// ERF timestamp: little-endian u64, seconds in the high word,
	// 2^-32 fractional seconds in the low word.
	frac := uint64(abs.Nanosecond()) << 32 / 1_000_000_000
	ts := uint64(abs.Unix())<<32 | frac
	lctr := r.Lost
	if lctr < 0 {
		lctr = 0
	}
	if lctr > math.MaxUint16 {
		lctr = math.MaxUint16
	}
	// The ERF header and the HDLC header after it are built in the
	// buffer's free space, as Writer.Write does.
	hdr := binary.LittleEndian.AppendUint64(w.w.AvailableBuffer(), ts)
	hdr = append(hdr, erfTypeHDLCPOS, 0) // flags: varying-length records, interface 0
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(rlen))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(lctr))
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(r.WireLen+hdlcHeaderLen))
	if _, err := w.w.Write(append(hdr, hdlcIPv4[:]...)); err != nil {
		return err
	}
	if _, err := w.w.Write(r.Data); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *ERFWriter) Count() int { return w.n }

// Flush flushes buffered output.
func (w *ERFWriter) Flush() error { return w.w.Flush() }
