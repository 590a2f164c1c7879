package core

import (
	"errors"
	"io"
	"sort"
	"time"

	"loopscope/internal/trace"
)

// ExtractLoopSource reads src to the end of a detected loop's evidence
// and returns the records that constitute it: every replica of every
// stream, plus — when context is positive — all records towards the
// loop's prefix within context of the loop window. The result is a
// small, self-contained trace an operator can hand to the neighboring
// network's NOC (the paper notes persistent loops "require cooperation
// of many network operation groups to be analyzed"; this is the
// artifact that cooperation runs on).
//
// src must yield the records the detector consumed, in the same order;
// nothing but the evidence is held. A read error comes back with the
// evidence gathered before it.
func ExtractLoopSource(src trace.Source, l *Loop, context time.Duration) ([]trace.Record, error) {
	take := make(map[int]bool)
	last := -1
	for _, s := range l.Streams {
		for _, r := range s.Replicas {
			take[r.Index] = true
			last = max(last, r.Index)
		}
	}
	lo, hi := l.Start-context, l.End+context
	out := make([]trace.Record, 0, len(take))
	var rerr error
	for i := 0; ; i++ {
		rec, err := src.Borrow()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				rerr = err
			}
			break
		}
		if i > last && rec.Time > hi {
			break // records are time-ordered: nothing further is evidence
		}
		if !take[i] {
			if context <= 0 || rec.Time < lo || rec.Time > hi {
				continue
			}
			if dst, err := decodeDst(rec.Data); err != nil || !l.Prefix.Contains(dst) {
				continue
			}
		}
		// Borrowed bytes are the reader's until the next read: keep a
		// copy.
		rec.Data = append([]byte(nil), rec.Data...)
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, rerr
}
