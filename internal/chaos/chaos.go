// Package chaos provides deterministic, seedable fault injectors for
// packet traces. It models the failure modes real capture rigs
// exhibit — capture-card drops, truncated snapshots, duplicated and
// reordered records, bit rot and garbage bursts on archived files —
// so that the ingestion layer's degraded-input behavior can be tested
// (and demonstrated via tracegen) instead of merely hoped for.
//
// Two layers of faults are offered:
//
//   - Record-level faults (Source / Sink wrappers around a
//     trace.Source or trace.Sink): drops, duplicates, snapshot
//     truncation, reordering. These produce structurally valid traces
//     whose *content* is degraded, the way a lossy capture rig
//     degrades it. Dropped records can feed the ERF loss counter
//     (trace.Record.Lost), matching what a DAG card reports.
//
//   - Byte-level faults (CorruptBytes): bit flips, garbage bursts and
//     tail truncation applied to an encoded trace file. These produce
//     structurally *damaged* files, the way storage and transfer
//     degrade them — the inputs salvage (trace.OpenOptions.Salvage)
//     exists for.
//
// Everything is driven by loopscope's splitmix64 RNG: the same seed
// and configuration always produce the same faults, on any platform,
// which is what makes chaos tests reproducible.
package chaos

import (
	"bytes"
	"io"

	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// ---------------------------------------------------------------------------
// Byte-level corruption.

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off int64
	Len int64
}

// contains reports whether the ranges cover byte i.
func contains(rs []Range, i int64) bool {
	for _, r := range rs {
		if i >= r.Off && i < r.Off+r.Len {
			return true
		}
	}
	return false
}

// overlaps reports whether [off, off+n) intersects any range.
func overlaps(rs []Range, off, n int64) bool {
	for _, r := range rs {
		if off < r.Off+r.Len && r.Off < off+n {
			return true
		}
	}
	return false
}

// ByteFaults configures CorruptBytes.
type ByteFaults struct {
	// Seed drives the deterministic fault placement.
	Seed uint64
	// BitFlips is the number of single-bit flips to apply.
	BitFlips int
	// GarbageBursts is the number of contiguous regions to overwrite
	// with random bytes; each burst is 1..BurstLen bytes long
	// (BurstLen <= 0 selects 64).
	GarbageBursts int
	BurstLen      int
	// TruncateTail removes the final TruncateTail bytes, simulating
	// a capture cut off mid-record.
	TruncateTail int
	// Protect lists byte ranges that must survive untouched (file
	// headers, records a test needs intact). Faults that cannot be
	// placed outside the protected ranges after a bounded number of
	// draws are dropped.
	Protect []Range
}

// CorruptBytes returns a damaged copy of data along with the byte
// ranges it damaged (tail truncation is reported as a range at the
// new end of file). The original slice is never modified. The result
// is a pure function of (data, cfg).
func CorruptBytes(data []byte, cfg ByteFaults) ([]byte, []Range) {
	rng := stats.NewRNG(cfg.Seed)
	out := make([]byte, len(data))
	copy(out, data)
	var damaged []Range

	if cfg.TruncateTail > 0 && cfg.TruncateTail < len(out) {
		cut := int64(len(out) - cfg.TruncateTail)
		if !overlaps(cfg.Protect, cut, int64(cfg.TruncateTail)) {
			out = out[:cut]
			damaged = append(damaged, Range{Off: cut, Len: int64(cfg.TruncateTail)})
		}
	}

	burstLen := cfg.BurstLen
	if burstLen <= 0 {
		burstLen = 64
	}
	for i := 0; i < cfg.GarbageBursts && len(out) > 0; i++ {
		n := int64(1 + rng.Intn(burstLen))
		// Bounded rejection sampling keeps placement deterministic
		// even when protected ranges cover most of the file.
		for try := 0; try < 100; try++ {
			off := rng.Int63n(int64(len(out)))
			if off+n > int64(len(out)) {
				n = int64(len(out)) - off
			}
			if n <= 0 || overlaps(cfg.Protect, off, n) {
				continue
			}
			for j := int64(0); j < n; j++ {
				out[off+j] = byte(rng.Uint64())
			}
			damaged = append(damaged, Range{Off: off, Len: n})
			break
		}
	}

	for i := 0; i < cfg.BitFlips && len(out) > 0; i++ {
		for try := 0; try < 100; try++ {
			off := rng.Int63n(int64(len(out)))
			if contains(cfg.Protect, off) {
				continue
			}
			out[off] ^= 1 << (rng.Intn(8))
			damaged = append(damaged, Range{Off: off, Len: 1})
			break
		}
	}
	return out, damaged
}

// ---------------------------------------------------------------------------
// Record-level faults.

// RecordFaults configures the Source and Sink wrappers. All rates are
// probabilities in [0, 1]; zero disables the fault.
type RecordFaults struct {
	// Seed drives the deterministic fault draws.
	Seed uint64
	// Drop is the probability a record vanishes, as when the capture
	// card's FIFO overflows.
	Drop float64
	// CountLoss makes each dropped record increment the Lost counter
	// of the next surviving record, the way a DAG card accounts for
	// its drops in the ERF lctr field. Only the ERF on-disk format
	// preserves the counter.
	CountLoss bool
	// Dup is the probability a record is emitted a second time,
	// back to back — a capture-path duplicate.
	Dup float64
	// Truncate is the probability a record's snapshot is cut short
	// (its Data shrinks; WireLen is untouched), as when a snapshot
	// write is interrupted.
	Truncate float64
	// Reorder is the probability a record is held back and emitted
	// after its successor — a two-record transposition.
	Reorder float64
}

// FaultStats counts the faults actually injected.
type FaultStats struct {
	Dropped    int
	Duplicated int
	Truncated  int
	Reordered  int
}

// faulter applies RecordFaults to a record stream; shared by Source
// and Sink.
type faulter struct {
	cfg         RecordFaults
	rng         *stats.RNG
	stats       FaultStats
	pendingLost int
	held        *trace.Record // record delayed by a reorder
}

func newFaulter(cfg RecordFaults) *faulter {
	return &faulter{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
}

// step applies faults to one incoming record and returns the records
// to emit now (possibly none).
func (f *faulter) step(rec trace.Record) []trace.Record {
	if f.cfg.Drop > 0 && f.rng.Bool(f.cfg.Drop) {
		f.stats.Dropped++
		if f.cfg.CountLoss {
			f.pendingLost++
		}
		return nil
	}
	if f.pendingLost > 0 {
		rec.Lost += f.pendingLost
		f.pendingLost = 0
	}
	if f.cfg.Truncate > 0 && len(rec.Data) > 0 && f.rng.Bool(f.cfg.Truncate) {
		cut := f.rng.Intn(len(rec.Data))
		rec.Data = rec.Data[:cut]
		f.stats.Truncated++
	}
	out := make([]trace.Record, 0, 3)
	if f.held != nil {
		// The held record trades places with its successor: emit the
		// new record first, then the delayed one.
		out = append(out, rec, *f.held)
		f.held = nil
	} else if f.cfg.Reorder > 0 && f.rng.Bool(f.cfg.Reorder) {
		f.stats.Reordered++
		f.held = &rec
		return nil
	} else {
		out = append(out, rec)
	}
	if f.cfg.Dup > 0 && f.rng.Bool(f.cfg.Dup) {
		f.stats.Duplicated++
		out = append(out, out[len(out)-1])
	}
	return out
}

// flush returns any record still held back by a pending reorder.
func (f *faulter) flush() []trace.Record {
	if f.held == nil {
		return nil
	}
	rec := *f.held
	f.held = nil
	return []trace.Record{rec}
}

// Source wraps a trace.Source, injecting record-level faults as the
// stream is read. It lends what its source lends: every record it
// returns is one the source lent since its last read, save the one a
// reorder holds back across a read, which it copies.
type Source struct {
	src     trace.Source
	f       *faulter
	queue   []trace.Record
	drained bool
	lent    trace.Record // what src lends into: a local would escape
}

// NewSource returns a fault-injecting view of src.
func NewSource(src trace.Source, cfg RecordFaults) *Source {
	return &Source{src: src, f: newFaulter(cfg)}
}

// Meta implements trace.Source.
func (s *Source) Meta() trace.Meta { return s.src.Meta() }

// Borrow implements trace.Source.
func (s *Source) Borrow(rec *trace.Record) error {
	for {
		if len(s.queue) > 0 {
			*rec = s.queue[0]
			s.queue = s.queue[1:]
			return nil
		}
		if s.drained {
			return io.EOF
		}
		err := s.src.Borrow(&s.lent)
		if err == io.EOF {
			s.drained = true
			s.queue = s.f.flush()
			continue
		}
		if err != nil {
			return err
		}
		held := s.f.held
		s.queue = s.f.step(s.lent)
		if h := s.f.held; h != nil && h != held {
			// Held back past the next read of src, which lent its bytes
			// only until then.
			h.Data = bytes.Clone(h.Data)
		}
	}
}

// Stats returns the faults injected so far.
func (s *Source) Stats() FaultStats { return s.f.stats }

// Sink wraps a trace.Sink, injecting record-level faults as the
// stream is written. Call Flush before flushing the underlying sink,
// or a record held back by a pending reorder is lost.
type Sink struct {
	dst trace.Sink
	f   *faulter
}

// NewSink returns a fault-injecting view of dst.
func NewSink(dst trace.Sink, cfg RecordFaults) *Sink {
	return &Sink{dst: dst, f: newFaulter(cfg)}
}

// Write implements trace.Sink.
func (s *Sink) Write(rec trace.Record) error {
	for _, r := range s.f.step(rec) {
		if err := s.dst.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Flush emits any record held back by a pending reorder. It does not
// flush the underlying sink.
func (s *Sink) Flush() error {
	for _, r := range s.f.flush() {
		if err := s.dst.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the faults injected so far.
func (s *Sink) Stats() FaultStats { return s.f.stats }
