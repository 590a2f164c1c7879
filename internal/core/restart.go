package core

import (
	"cmp"
	"slices"
)

// Resume without serialized state. Every decision the Detector has
// still to make reads only state derived from recent records: table
// entries, open builders, pending and validated streams, the loop still
// accepting streams, and the membership of the packets in their
// windows. So a fresh detector fed the original's records from the
// earliest of those on makes, from any later record on, exactly the
// original's decisions, as long as it also sees every member stream
// that reaches that far back whole: a stream cut short could fall below
// MemberReplicas and refute a window the original found clean.
// FuzzRestartPoint holds the two against each other.

// span is a closed member stream: the record indices of its first and
// last observations.
type span struct{ first, last int }

// restartPoint returns r, the record index a fresh detector must be fed
// from to make this one's decisions from the next record on, and
// whether that is exact: false if the governor shed since r, as
// shedding depends on everything the detector held. at maps an index to
// the nearest one at or before it that the caller can re-read from: 0,
// or a record stamped later than the one before it, since a window
// starting at r must hold everything stamped at r's time. The detector
// must track spans (see Session), and r never decreases from one call
// to the next.
func (d *Detector) restartPoint(at func(int) int) (r int, exact bool) {
	r = d.n
	if e := d.first.coldest(); e != nil {
		r = min(r, e.idx())
	}
	for b := d.live.head; b != nil; b = b.next {
		r = min(r, b.replicas[0].Index)
	}
	for _, ps := range d.byPrefix {
		for _, b := range ps.pending {
			r = min(r, b.replicas[0].Index)
		}
		for _, s := range ps.validated {
			r = min(r, s.Replicas[0].Index)
		}
		if ps.loop != nil {
			for _, s := range ps.loop.Streams {
				r = min(r, s.Replicas[0].Index)
			}
		}
	}
	// Back to the first observation of every member stream that ends at
	// or after r, until none crosses it. Latest end first, one sweep; the
	// spans left behind end before r, so no later r can reach them.
	slices.SortFunc(d.spans, func(a, b span) int { return cmp.Compare(b.last, a.last) })
	r = at(r)
	i := 0
	for {
		low := r
		for ; i < len(d.spans) && d.spans[i].last >= r; i++ {
			low = min(low, d.spans[i].first)
		}
		if low == r {
			break
		}
		r = at(low)
	}
	d.spans = d.spans[:i]
	return r, d.shedAt <= r
}
