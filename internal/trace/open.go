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
	// Salvage reads through the salvaging policy: corrupt regions are
	// skipped and decoding resynchronises on the next plausible record
	// instead of aborting.
	Salvage bool
	// MaxDecodeErrors is the salvage error budget (<= 0: unlimited).
	MaxDecodeErrors int
	// Metrics, when non-nil, meters the returned File: records,
	// bytes, capture-loss gaps, and (under Salvage) live decode-health
	// gauges flow into the registry as the source is consumed. Nil
	// leaves the tap's counters nil — the uninstrumented default.
	Metrics *obs.Registry
}

// Open opens a trace for reading, concentrating the open/sniff/salvage
// policy that every tool shares: the input may be gzipped (sniffed and
// unwrapped transparently), the format is sniffed from the magic bytes
// unless forced, and with opts.Salvage the reader tolerates damaged
// regions. The path "-" reads the trace from standard input, so piped
// captures work without a temp file.
//
// The returned File owns the file handle; close it when done. The
// *DecodeStats is non-nil only under Salvage; it is a live view that
// fills in as the source is consumed, so read it after draining.
func Open(path string, opts OpenOptions) (*File, *DecodeStats, error) {
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
	src.f = f
	return src, stats, nil
}

// OpenStream is Open over an arbitrary reader: the same gzip and
// format sniffing, done on the window's first bytes, so nothing is ever
// seeked or reopened and pipes, sockets and stdin work. The caller
// keeps ownership of r; closing the returned File does not close it.
func OpenStream(r io.Reader, opts OpenOptions) (*File, *DecodeStats, error) {
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
		src, err := newSalvageReader(w, salvageOptions{
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

// CloseSource closes src if it has something to close; sources without
// an underlying file are a no-op.
func CloseSource(src Source) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// File is the source Open and OpenStream return: a reader under the
// ingest stage's instrumentation tap, which counts what flows through
// it — records, captured and wire bytes, capture-loss gaps, and, over
// a salvaging reader, the live decode-health gauges. Open's File also
// owns the file it opened. Every wrapper between a reader and its
// caller costs a stack copy of each Record, so a read goes through this
// one wrapper and no second one; without a registry the counters are
// nil and publishing is a no-op.
type File struct {
	src  Source
	f    *os.File // the file Open opened, nil for any other source
	slab slab     // Next's copies

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

// MeterSource puts the tap over src, so every record read updates the
// ingest metrics in r (obs.MetricTraceRecords and friends). r may be
// nil: the counters are then nil and count nothing. stats may be nil;
// when it is the live DecodeStats of a salvage pass, the salvage
// gauges track it.
func MeterSource(src Source, r *obs.Registry, stats *DecodeStats) *File {
	m := &File{
		src:      src,
		recs:     r.Counter(obs.MetricTraceRecords),
		capBytes: r.Counter(obs.MetricTraceCaptureBytes),
		wireB:    r.Counter(obs.MetricTraceWireBytes),
		lossGaps: r.Counter(obs.MetricTraceLossGaps),
		lostPkts: r.Counter(obs.MetricTraceLostPackets),
	}
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
func (m *File) Meta() Meta { return m.src.Meta() }

// meterPublishEvery is how many records the tap counts privately
// between publishes; a live reader of the registry (-progress,
// /metrics) lags the source by fewer than this many.
const meterPublishEvery = 256

// publish moves the private tallies into the registry.
func (m *File) publish() {
	m.recs.Add(m.nRecs)
	m.capBytes.Add(m.nCap)
	m.wireB.Add(m.nWire)
	m.nRecs, m.nCap, m.nWire = 0, 0, 0
}

// Close publishes what a reader that stopped early (an interrupted
// run) left unpublished, then closes the wrapped source and the file.
func (m *File) Close() error {
	m.publish()
	err := CloseSource(m.src)
	if m.f != nil {
		err = m.f.Close()
	}
	return err
}

// Progress returns a function that reports the file offset consumed so
// far and the file's total size, or nil when the source has no file
// (a stream, stdin). For gzipped traces both figures are in compressed
// bytes (the only offsets the file handle knows), which is exactly
// what a percent-done/ETA computation wants. The offset is read from
// the OS file position, so buffered readers make it run a little ahead
// of the records actually delivered; progress reporting tolerates that
// slack.
func (m *File) Progress() func() (offset, size int64) {
	if m.f == nil {
		return nil
	}
	return func() (offset, size int64) {
		off, _ := m.f.Seek(0, io.SeekCurrent) // 0 on error
		st, err := m.f.Stat()
		if err != nil {
			return off, 0
		}
		return off, st.Size()
	}
}

// Borrow implements Source, counting successful reads. Every error —
// end of trace, a failure — publishes first, so whoever looks at the
// registry after one sees exact counts.
func (m *File) Borrow() (rec Record, err error) {
	rec, err = m.src.Borrow()
	m.count(len(rec.Data), rec.WireLen, rec.Lost, err)
	return
}

// Next is Borrow plus a copy of the record's Data into a slab. No tool
// reads through it (every tool borrows, and ReadAll keeps a whole
// trace); it is kept only because the benchmark harness
// (bench/layers.go) compiles against it, and goes when that harness
// moves to core.Run (ROADMAP items 1 and 8).
func (m *File) Next() (rec Record, err error) {
	if rec, err = m.Borrow(); err == nil {
		rec.Data = m.slab.own(rec.Data)
	}
	return rec, err
}

// count tallies one read. Borrow hands it only the record's sizes and
// returns its named result as read: a Record is too large for the
// compiler to keep in registers, so passing it into a call and back
// copies it through the stack twice per record, which costs more than
// the tally.
func (m *File) count(capLen, wireLen, lost int, err error) {
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
