package trace

import "loopscope/internal/obs"

// meteredSource wraps a Source and counts what flows through it:
// records, captured and wire bytes, capture-loss gaps, and — when the
// underlying reader is a SalvageReader — the live decode-health
// gauges. It is the ingest stage's instrumentation tap.
type meteredSource struct {
	src    Source
	lender Borrower

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
	m := &meteredSource{
		src:      src,
		lender:   Lender(src),
		recs:     r.Counter(obs.MetricTraceRecords),
		capBytes: r.Counter(obs.MetricTraceCaptureBytes),
		wireB:    r.Counter(obs.MetricTraceWireBytes),
		lossGaps: r.Counter(obs.MetricTraceLossGaps),
		lostPkts: r.Counter(obs.MetricTraceLostPackets),
	}
	if stats != nil {
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
// run) left unpublished; CloseSource reaches it.
func (m *meteredSource) Close() error {
	m.publish()
	return CloseSource(m.src)
}

// Next implements Source, counting successful reads. Every error —
// end of trace, a tail with no data yet, a failure — publishes first,
// so whoever looks at the registry after one sees exact counts.
func (m *meteredSource) Next() (Record, error) { return m.count(m.src.Next()) }

// Borrow implements Borrower, lending when src does, and counts as Next.
func (m *meteredSource) Borrow() (Record, error) { return m.count(m.lender.Borrow()) }

func (m *meteredSource) count(rec Record, err error) (Record, error) {
	if err != nil {
		m.publish()
		return rec, err
	}
	m.nRecs++
	m.nCap += int64(len(rec.Data))
	m.nWire += int64(rec.WireLen)
	if m.nRecs == meterPublishEvery {
		m.publish()
	}
	if rec.Lost > 0 {
		m.lossGaps.Inc()
		m.lostPkts.Add(int64(rec.Lost))
	}
	if m.stats != nil {
		m.sRecords.Set(int64(m.stats.Records))
		m.sSalvaged.Set(int64(m.stats.Salvaged))
		m.sErrors.Set(int64(m.stats.Errors))
		m.sResyncs.Set(int64(m.stats.Resyncs))
		m.sSkipped.Set(m.stats.BytesSkipped)
	}
	return rec, nil
}
