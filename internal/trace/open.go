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
	// Meter here, not in OpenStream: the tap that owns the file is the
	// one wrapper around the reader.
	bare := opts
	bare.Metrics = nil
	src, stats, err := OpenStream(f, bare)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	m := meter(src, opts.Metrics, stats)
	m.f = f
	return m, stats, nil
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

// ProgressOf returns src's progress function, or nil when the source
// cannot report byte offsets (in-memory sources, bare readers).
func ProgressOf(src Source) func() (offset, size int64) {
	if m, ok := src.(*meteredSource); ok && m.f != nil {
		return m.progress
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

// meteredSource wraps a Source and counts what flows through it:
// records, captured and wire bytes, capture-loss gaps, and — when the
// underlying reader is a SalvageReader — the live decode-health
// gauges. It is the ingest stage's instrumentation tap, and the source
// Open returns: it owns the file Open opened. Every wrapper between a
// reader and its caller costs a stack copy of each Record, so a
// metered file read goes through this one wrapper and no second one;
// without a registry the counters are nil and publishing is a no-op.
type meteredSource struct {
	src    Source
	lender Borrower // src when it lends, else nil: Borrow calls Next
	f      *os.File // the file Open opened, nil for any other source

	recs     *obs.Counter
	capBytes *obs.Counter
	wireB    *obs.Counter
	lossGaps *obs.Counter
	lostPkts *obs.Counter
	// The three per-record tallies since the last publish: plain adds
	// here, so the registry's atomics are paid once per
	// meterPublishEvery records and not three times per record.
	nRecs, nCap, nWire int64

	// stats is the live salvage DecodeStats, nil for strict readers.
	// The gauges mirror it so /metrics shows decode health mid-run.
	stats     *DecodeStats
	sRecords  *obs.Gauge
	sSalvaged *obs.Gauge
	sErrors   *obs.Gauge
	sResyncs  *obs.Gauge
	sSkipped  *obs.Gauge
}

// MeterSource wraps src so every record read updates the ingest
// metrics in r (obs.MetricTraceRecords and friends). stats may be nil;
// when it is the live DecodeStats of a salvage pass, the salvage
// gauges track it. A nil registry returns src unchanged, so the
// uninstrumented path has no wrapper at all.
func MeterSource(src Source, r *obs.Registry, stats *DecodeStats) Source {
	if r == nil {
		return src
	}
	return meter(src, r, stats)
}

// meter builds the tap. r may be nil: Open wraps every file in the
// tap, metered or not.
func meter(src Source, r *obs.Registry, stats *DecodeStats) *meteredSource {
	m := &meteredSource{
		src:      src,
		recs:     r.Counter(obs.MetricTraceRecords),
		capBytes: r.Counter(obs.MetricTraceCaptureBytes),
		wireB:    r.Counter(obs.MetricTraceWireBytes),
		lossGaps: r.Counter(obs.MetricTraceLossGaps),
		lostPkts: r.Counter(obs.MetricTraceLostPackets),
	}
	m.lender, _ = src.(Borrower)
	if stats != nil && r != nil {
		m.stats = stats
		m.sRecords = r.Gauge(obs.MetricSalvageRecords)
		m.sSalvaged = r.Gauge(obs.MetricSalvageSalvaged)
		m.sErrors = r.Gauge(obs.MetricSalvageErrors)
		m.sResyncs = r.Gauge(obs.MetricSalvageResyncs)
		m.sSkipped = r.Gauge(obs.MetricSalvageBytesSkipped)
	}
	return m
}

// Meta implements Source.
func (m *meteredSource) Meta() Meta { return m.src.Meta() }

// meterPublishEvery is how many records the tap counts privately
// between publishes; a live reader of the registry (-progress,
// /metrics) lags the source by fewer than this many.
const meterPublishEvery = 256

// publish moves the private tallies into the registry.
func (m *meteredSource) publish() {
	m.recs.Add(m.nRecs)
	m.capBytes.Add(m.nCap)
	m.wireB.Add(m.nWire)
	m.nRecs, m.nCap, m.nWire = 0, 0, 0
}

// Close publishes what a reader that stopped early (an interrupted
// run) left unpublished, then closes the wrapped source and the file;
// CloseSource reaches it.
func (m *meteredSource) Close() error {
	m.publish()
	err := CloseSource(m.src)
	if m.f != nil {
		err = m.f.Close()
	}
	return err
}

// progress reports the file offset consumed so far and the file's
// total size (ProgressOf). For gzipped traces both figures are in
// compressed bytes (the only offsets the file handle knows), which is
// exactly what a percent-done/ETA computation wants. The offset is
// read from the OS file position, so buffered readers make it run a
// little ahead of the records actually delivered; progress reporting
// tolerates that slack.
func (m *meteredSource) progress() (offset, size int64) {
	off, _ := m.f.Seek(0, io.SeekCurrent) // 0 on error
	st, err := m.f.Stat()
	if err != nil {
		return off, 0
	}
	return off, st.Size()
}

// Next implements Source, counting successful reads. Every error —
// end of trace, a tail with no data yet, a failure — publishes first,
// so whoever looks at the registry after one sees exact counts.
func (m *meteredSource) Next() (rec Record, err error) {
	rec, err = m.src.Next()
	m.count(len(rec.Data), rec.WireLen, rec.Lost, err)
	return
}

// Borrow implements Borrower, lending when src does, and counts as
// Next. Over a source that does not lend it calls Next itself rather
// than through Lender's adapter, which would be a wrapper more.
func (m *meteredSource) Borrow() (rec Record, err error) {
	if m.lender != nil {
		rec, err = m.lender.Borrow()
	} else {
		rec, err = m.src.Next()
	}
	m.count(len(rec.Data), rec.WireLen, rec.Lost, err)
	return
}

// count tallies one read. Next and Borrow hand it only the record's
// sizes and return their named result as read: a Record is too large
// for the compiler to keep in registers, so passing it into a call and
// back copies it through the stack twice per record, which costs more
// than the tally.
func (m *meteredSource) count(capLen, wireLen, lost int, err error) {
	if err != nil {
		m.publish()
		return
	}
	m.nRecs++
	m.nCap += int64(capLen)
	m.nWire += int64(wireLen)
	if m.nRecs == meterPublishEvery {
		m.publish()
	}
	if lost > 0 {
		m.lossGaps.Inc()
		m.lostPkts.Add(int64(lost))
	}
	if m.stats != nil {
		m.sRecords.Set(int64(m.stats.Records))
		m.sSalvaged.Set(int64(m.stats.Salvaged))
		m.sErrors.Set(int64(m.stats.Errors))
		m.sResyncs.Set(int64(m.stats.Resyncs))
		m.sSkipped.Set(m.stats.BytesSkipped)
	}
}
