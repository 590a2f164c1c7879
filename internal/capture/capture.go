// Package capture turns a netsim link tap into a packet trace: every
// packet crossing the monitored link is serialised and truncated to
// the snapshot length, exactly as the optical-splitter-plus-DAG-card
// rigs that produced the paper's traces did.
package capture

import (
	"fmt"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// Options configures a LinkTap beyond the basics.
type Options struct {
	// SnapLen is the snapshot length; <= 0 selects
	// trace.DefaultSnapLen.
	SnapLen int
	// Sink, when non-nil, receives records as they are captured.
	Sink trace.Sink
	// Retain keeps records in memory for Records().
	Retain bool
	// DupRate injects link-layer duplication artefacts: with this
	// probability a captured packet appears a second time, DupDelay
	// later, with its TTL lower by DupTTLDrop (an upstream
	// duplicate that reached the link over a slightly longer path —
	// a misbehaving SONET protection layer or an undrained token
	// ring, per the paper's §IV-A.2). These two-element replica sets
	// are exactly what the detector's step 2 must reject.
	DupRate    float64
	DupTTLDrop int
	DupDelay   time.Duration
	// RNG drives the duplication draw; required when DupRate > 0.
	RNG *stats.RNG
}

// LinkTap records packets crossing one unidirectional link into
// memory.
type LinkTap struct {
	meta    trace.Meta
	recs    []trace.Record
	errs    int
	sink    trace.Sink
	sinkErr error
	dups    int
	// wireBytes accumulates the on-the-wire volume seen, for average
	// bandwidth reporting (Table I).
	wireBytes uint64
	// pending holds duplicate records awaiting their delayed
	// timestamp (flushed in order as later packets arrive).
	pending []trace.Record
}

// NewLinkTap attaches a tap to link. snapLen <= 0 selects
// trace.DefaultSnapLen. If sink is non-nil records stream to it as
// they are captured (in addition to being retained in memory when
// retain is true).
func NewLinkTap(link *netsim.Link, snapLen int, sink trace.Sink, retain bool) *LinkTap {
	return NewLinkTapOpts(link, Options{SnapLen: snapLen, Sink: sink, Retain: retain})
}

// NewLinkTapOpts attaches a tap with full options.
func NewLinkTapOpts(link *netsim.Link, o Options) *LinkTap {
	if o.SnapLen <= 0 {
		o.SnapLen = trace.DefaultSnapLen
	}
	if o.DupRate > 0 && o.RNG == nil {
		panic("capture: DupRate requires an RNG")
	}
	if o.DupTTLDrop <= 0 {
		o.DupTTLDrop = 2
	}
	if o.DupDelay <= 0 {
		o.DupDelay = time.Millisecond
	}
	t := &LinkTap{
		meta: trace.Meta{Link: link.Name, SnapLen: o.SnapLen},
		sink: o.Sink,
	}
	link.AddTap(func(at netsim.Time, tp *netsim.TransitPacket) {
		// Flush delayed duplicates that precede this packet.
		for len(t.pending) > 0 && t.pending[0].Time <= at {
			t.emit(t.pending[0], o.Retain)
			t.pending = t.pending[1:]
		}
		buf := make([]byte, o.SnapLen)
		n, err := tp.Pkt.Serialize(buf, o.SnapLen)
		if err != nil {
			t.errs++
			return
		}
		rec := trace.Record{
			Time:    at,
			WireLen: tp.Pkt.WireLen(),
			Data:    buf[:n],
		}
		t.emit(rec, o.Retain)
		if o.DupRate > 0 && o.RNG.Bool(o.DupRate) && int(tp.Pkt.IP.TTL) > o.DupTTLDrop {
			dup := trace.Record{
				Time:    at + o.DupDelay,
				WireLen: rec.WireLen,
				Data:    duplicateBytes(rec.Data, o.DupTTLDrop),
			}
			t.dups++
			t.pending = append(t.pending, dup)
		}
	})
	return t
}

// duplicateBytes copies a snapshot, lowers its TTL by drop, and
// recomputes the IP header checksum — the wire image of the same
// packet after drop more hops.
func duplicateBytes(data []byte, drop int) []byte {
	d := make([]byte, len(data))
	copy(d, data)
	if len(d) < packet.IPv4HeaderLen {
		return d
	}
	d[8] -= byte(drop)
	d[10], d[11] = 0, 0
	ck := packet.Checksum(d[:packet.IPv4HeaderLen], 0)
	d[10], d[11] = byte(ck>>8), byte(ck)
	return d
}

func (t *LinkTap) emit(rec trace.Record, retain bool) {
	t.wireBytes += uint64(rec.WireLen)
	// A failed sink stays failed (a full disk does not un-fill), so
	// the first error is kept and the sink is not written again;
	// in-memory retention continues regardless.
	if t.sink != nil && t.sinkErr == nil {
		if err := t.sink.Write(rec); err != nil {
			t.errs++
			t.sinkErr = fmt.Errorf("capture: sink write on %s: %w", t.meta.Link, err)
		}
	}
	if retain {
		t.recs = append(t.recs, rec)
	}
}

// Meta returns the trace metadata.
func (t *LinkTap) Meta() trace.Meta { return t.meta }

// Records returns the retained records in capture order.
func (t *LinkTap) Records() []trace.Record { return t.recs }

// String summarises the tap.
func (t *LinkTap) String() string {
	return fmt.Sprintf("tap(%s): %d packets, %d bytes", t.meta.Link, len(t.recs), t.wireBytes)
}
