package serve

import (
	"context"
	"sync"
)

// Ring is the in-memory sink behind the HTTP API: a fixed-capacity
// ring of the most recent events. Publish never blocks and never
// fails; old events fall off the back.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	seqs  []int64 // seqs[i] is buf[i]'s publish sequence (1-based)
	next  int
	total int64
}

// NewRing returns a ring holding the latest size events (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]Event, 0, size)}
}

// Name implements Sink.
func (r *Ring) Name() string { return "ring" }

// Publish implements Sink.
func (r *Ring) Publish(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		r.seqs = append(r.seqs, r.total)
	} else {
		r.buf[r.next] = e
		r.seqs[r.next] = r.total
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// Close implements Sink; the ring has nothing to drain.
func (r *Ring) Close(context.Context) error { return nil }

// Total returns the number of events ever published.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Page is one page of a cursor walk over the ring.
type Page struct {
	// Events are up to limit retained events, newest first.
	Events []Event
	// Seqs are the events' publish sequence numbers (1-based,
	// monotonically assigned), parallel to Events.
	Seqs []int64
	// Next is the cursor for the following (older) page, or 0 when the
	// walk is exhausted — either the ring's retention ends or event 1
	// was reached.
	Next int64
	// Total is the number of events ever published.
	Total int64
}

// PageAfter returns up to limit events with sequence <= cursor that
// pass keep (nil keeps everything), newest first. A cursor <= 0 starts
// from the newest event. Sequence numbers are stable across pages, so
// a client walking Next cursors sees each retained event at most once
// even while new events are being published.
func (r *Ring) PageAfter(cursor int64, limit int, keep func(Event) bool) Page {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := Page{Events: []Event{}, Seqs: []int64{}, Total: r.total}
	size := len(r.buf)
	if size == 0 || limit <= 0 {
		return p
	}
	if cursor <= 0 || cursor > r.total {
		cursor = r.total
	}
	for i := 0; i < size; i++ {
		idx := (r.next - 1 - i + 2*size) % size
		seq := r.seqs[idx]
		if seq > cursor {
			continue
		}
		if len(p.Events) == limit {
			// One more retained candidate exists past the page: point at it.
			p.Next = seq
			return p
		}
		if keep == nil || keep(r.buf[idx]) {
			p.Events = append(p.Events, r.buf[idx])
			p.Seqs = append(p.Seqs, seq)
		}
	}
	return p
}
