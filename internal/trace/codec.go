package trace

import (
	"encoding/binary"
	"fmt"
	"time"
)

// The framing codec. Every on-disk field of every format is decoded
// here and nowhere else (the decode rule of internal/archtest enforces it):
// one fileHeader and one record per format, each answering "decoded",
// "need more bytes" or "malformed" about the bytes it is shown. The
// three readers are policies over those answers and a shared byte
// window (window.go):
//
//	strict  (reader)         the first malformed record is the error
//	salvage (salvageReader)  malformed or implausible is damage to scan past
//	tail    (TailReader)     need-more is "not yet", anything else permanent
//
// Input rules, format × policy (TestInputRulePolicies pins each cell).
// "pass" delivers the record as decoded; "clamp" delivers it with
// WireLen raised to len(Data), so every delivered record satisfies
// Validate's caplen <= wirelen; "corrupt" opens a corrupt region
// (DecodeStats.Errors) and resynchronises; "tail" ends the stream with
// DecodeStats.TruncatedTail; "wait" keeps polling.
//
//	input                      strict             salvage   tail (native)
//	backwards timestamp        pass               corrupt   error
//	caplen > wirelen           clamp              corrupt*  clamp
//	wirelen = 0                clamp              corrupt   clamp
//	caplen > snaplen, native   error              corrupt   error
//	caplen > snaplen, pcap     pass (<= 1 MiB)    corrupt   -
//	pcap caplen > 1 MiB        error              corrupt   -
//	ERF type != 1, rlen < 20   error              corrupt   -
//	EOF inside record header   ErrUnexpectedEOF   tail      wait
//	EOF inside record body     ErrUnexpectedEOF   tail      wait
//
// A native writer refuses caplen > snaplen, so a reader that sees it is
// looking at damage; a pcap's snaplen field is advisory in the wild, so
// strict keeps only the 1 MiB allocation bound there.
// (*) ERF is the exception: DAG cards pad rlen to a multiple of eight,
// so caplen a few bytes above wirelen is routine and ERF salvage clamps
// like strict instead of discarding the record.

// Format selects an on-disk trace format.
type Format int

const (
	// FormatAuto sniffs native and pcap magics; under salvage it also
	// falls back to ERF when the first bytes look like a plausible ERF
	// record header.
	FormatAuto Format = iota
	// formatNative is the loopscope native format.
	formatNative
	// formatPcap is the libpcap file format.
	formatPcap
	// FormatERF is the Endace extensible record format (HDLC PoS).
	FormatERF
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case formatNative:
		return "native"
	case formatPcap:
		return "pcap"
	case FormatERF:
		return "erf"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Record header lengths and the hard bound on a pcap caplen: the
// largest allocation a length field can demand from any reader.
const (
	nativeFileHdrLen = 18 // magic, version, snaplen, start, linklen
	nativeRecHdrLen  = 12
	pcapFileHdrLen   = 24
	pcapRecHdrLen    = 16
	maxPcapCapLen    = 1 << 20
	// maxRecordLen is the longest record any format's decode admits
	// (native and ERF lengths are 16-bit fields); it sizes the window.
	maxRecordLen = pcapRecHdrLen + maxPcapCapLen
)

// status is a decode verdict on the bytes shown so far, for a file
// header and a record alike.
type status int

const (
	stOK        status = iota // all of it; recHeader describes it
	stNeedMore                // a valid prefix; recHeader.size bytes are needed
	stMalformed               // violates a hard limit; recHeader.bad says which
)

// recHeader is the decoded, format-independent view of one record. A
// file header fills in only size and bad.
type recHeader struct {
	size    int   // whole unit on disk: fixed header, framing, captured bytes
	data    int   // offset of the captured bytes within the record
	ts      int64 // ns since Meta.Start (native) or since the UNIX epoch (pcap, ERF)
	wireLen int
	lost    int    // ERF loss counter
	fracBad bool   // pcap sub-second field out of range for the file's resolution
	bad     string // the hard limit violated, when malformed
}

func (h *recHeader) capLen() int { return h.size - h.data }

// codec decodes one trace file: its format, what the file header said,
// and the epoch that turns record timestamps into Record.Time.
type codec struct {
	format Format
	meta   Meta
	recHdr int // fixed record header length

	order   binary.ByteOrder // pcap byte order
	nanores bool             // pcap sub-second field counts ns, not µs

	// Native records carry offsets from Meta.Start, so the epoch is
	// zero and known from the start. pcap and ERF records carry
	// absolute times: the first record delivered defines the epoch and
	// becomes Meta.Start.
	started bool
	epoch   int64
}

func newCodec(f Format) codec {
	c := codec{format: f, recHdr: pcapRecHdrLen} // pcap and ERF headers are both 16 bytes
	if f == formatNative {
		c.recHdr, c.started = nativeRecHdrLen, true
	}
	return c
}

// pcapOrder reads a pcap magic: byte order and timestamp resolution.
func pcapOrder(b []byte) (order binary.ByteOrder, nanores, ok bool) {
	le, be := binary.LittleEndian.Uint32(b), binary.BigEndian.Uint32(b)
	switch {
	case le == pcapMagicMicros:
		return binary.LittleEndian, false, true
	case le == pcapMagicNanos:
		return binary.LittleEndian, true, true
	case be == pcapMagicMicros:
		return binary.BigEndian, false, true
	case be == pcapMagicNanos:
		return binary.BigEndian, true, true
	}
	return nil, false, false
}

// sniff names the format whose magic b (at least four bytes) starts
// with, or FormatAuto. ERF has no magic; only salvage guesses at it.
func sniff(b []byte) Format {
	if len(b) >= 4 {
		if [4]byte(b[:4]) == nativeMagic {
			return formatNative
		}
		if _, _, ok := pcapOrder(b); ok {
			return formatPcap
		}
	}
	return FormatAuto
}

// fileHeader decodes the file-level header of c.format at the start of
// b into c; h.size is its length. (Both decodes fill in a recHeader the
// caller owns: returning the struct by value costs a third of a read.)
func (c *codec) fileHeader(b []byte, h *recHeader) (st status) {
	*h = recHeader{}
	switch c.format {
	case formatNative:
		if len(b) >= 4 && [4]byte(b[:4]) != nativeMagic {
			h.bad = fmt.Sprintf("bad magic %q", b[:4])
			return stMalformed
		}
		if h.size = nativeFileHdrLen; len(b) < h.size {
			return stNeedMore
		}
		if v := binary.BigEndian.Uint16(b[4:6]); v != nativeVersion {
			h.bad = fmt.Sprintf("unsupported version %d", v)
			return stMalformed
		}
		if h.size += int(binary.BigEndian.Uint16(b[16:18])); len(b) < h.size {
			return stNeedMore
		}
		c.meta = Meta{
			Link:    string(b[nativeFileHdrLen:h.size]),
			Start:   time.Unix(0, int64(binary.BigEndian.Uint64(b[8:16]))),
			SnapLen: int(binary.BigEndian.Uint16(b[6:8])),
		}
	case formatPcap:
		if h.size = pcapFileHdrLen; len(b) < h.size {
			return stNeedMore
		}
		var ok bool
		if c.order, c.nanores, ok = pcapOrder(b); !ok {
			h.bad = fmt.Sprintf("not a pcap file (magic % x)", b[:4])
			return stMalformed
		}
		if lt := c.order.Uint32(b[20:24]); lt != linkTypeRaw {
			h.bad = fmt.Sprintf("unsupported pcap link type %d (want %d, raw IP)", lt, linkTypeRaw)
			return stMalformed
		}
		c.meta = Meta{Link: "pcap", SnapLen: int(c.order.Uint32(b[16:20]))}
	case FormatERF:
		// No file header: records begin at byte zero.
		c.meta = Meta{Link: "erf", SnapLen: DefaultSnapLen}
	default:
		h.bad = fmt.Sprintf("unknown format %v", c.format)
		return stMalformed
	}
	return stOK
}

// record decodes the record at the start of b and enforces the hard
// limits every policy shares: the ones that bound what a length field
// can make a reader allocate or skip, and the record kinds this
// package understands. Anything softer is the policy's business.
func (c *codec) record(b []byte, h *recHeader) (st status) {
	*h = recHeader{}
	if len(b) < c.recHdr {
		h.size = c.recHdr
		return stNeedMore
	}
	switch c.format {
	case formatNative:
		h.ts = int64(binary.BigEndian.Uint64(b[0:8]))
		h.wireLen = int(binary.BigEndian.Uint16(b[8:10]))
		capLen := int(binary.BigEndian.Uint16(b[10:12]))
		h.data, h.size = nativeRecHdrLen, nativeRecHdrLen+capLen
		if capLen > c.meta.SnapLen {
			h.bad = "caplen exceeds the file's snaplen"
		}
	case formatPcap:
		sub := int64(c.order.Uint32(b[4:8]))
		if c.nanores {
			h.fracBad = sub >= 1e9
		} else {
			h.fracBad = sub >= 1e6
			sub *= 1000
		}
		h.ts = int64(c.order.Uint32(b[0:4]))*1e9 + sub
		capLen := int(c.order.Uint32(b[8:12]))
		h.wireLen = int(c.order.Uint32(b[12:16]))
		h.data, h.size = pcapRecHdrLen, pcapRecHdrLen+capLen
		if capLen > maxPcapCapLen {
			h.bad = "implausible pcap caplen"
		}
	case FormatERF:
		// Fixed-point timestamp: seconds in the high word, 2^-32
		// fractional seconds in the low word.
		ts := binary.LittleEndian.Uint64(b[0:8])
		h.ts = int64(ts>>32)*1e9 + int64((ts&0xffffffff)*1e9>>32)
		rlen := int(binary.BigEndian.Uint16(b[10:12]))
		h.lost = int(binary.BigEndian.Uint16(b[12:14]))
		// wlen counts the HDLC framing, which Record.Data strips.
		h.wireLen = int(binary.BigEndian.Uint16(b[14:16])) - hdlcHeaderLen
		h.data, h.size = erfHeaderLen+hdlcHeaderLen, rlen
		switch {
		case b[8] != erfTypeHDLCPOS:
			h.bad = "unsupported ERF record type"
		case rlen < erfHeaderLen+hdlcHeaderLen:
			h.bad = "ERF rlen shorter than its own headers"
		}
	}
	switch {
	case h.bad != "":
		return stMalformed
	case len(b) < h.size:
		return stNeedMore
	}
	return stOK
}

// malformedErr renders the hard limit a file header or record violates.
func (c *codec) malformedErr(h *recHeader) error {
	if h.data == 0 { // a file header: bad is the whole story
		return fmt.Errorf("trace: %s", h.bad)
	}
	return fmt.Errorf("trace: malformed %v record: %s (record length %d, wirelen %d)",
		c.format, h.bad, h.size, h.wireLen)
}

// lend consumes the decoded record at the front of w and writes it into
// *rec with Data a view of the window, [h.data:h.size:h.size]: no copy
// and no allocation, valid until the next need on w, which is the
// reader's next Borrow. Every reader decodes through it, straight into
// its caller's record; an owning read then copies Data through a slab.
// It sets the fields one by one: assigning a composite literal builds it
// on the stack with 8-byte stores and copies it out with 16-byte loads,
// which stall on those stores (a twelfth of loopdetect's CPU in a
// profile on a sparse capture).
func (c *codec) lend(h *recHeader, w *window, rec *Record) {
	if !c.started {
		c.started, c.epoch = true, h.ts
		c.meta.Start = time.Unix(0, h.ts)
	}
	rec.Time = time.Duration(h.ts - c.epoch)
	rec.WireLen = max(h.wireLen, h.capLen())
	rec.Lost = h.lost
	rec.Data = w.buffered()[h.data:h.size:h.size]
	w.consume(h.size)
}
