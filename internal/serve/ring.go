package serve

import (
	"context"
	"sync"

	"loopscope/pkg/loopscope"
)

// Ring is the in-memory sink behind the HTTP API: a fixed-capacity
// ring of the most recent events. Publish never blocks and never
// fails; old events fall off the back.
type Ring struct {
	mu    sync.Mutex
	buf   []loopscope.LoopEvent // each event with its publish sequence (1-based)
	next  int
	total int64
}

// NewRing returns a ring holding the latest size events (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]loopscope.LoopEvent, 0, size)}
}

// Name implements Sink.
func (r *Ring) Name() string { return "ring" }

// Publish implements Sink.
func (r *Ring) Publish(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, loopscope.LoopEvent{Seq: r.total, Event: e})
	} else {
		r.buf[r.next] = loopscope.LoopEvent{Seq: r.total, Event: e}
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// Close implements Sink; the ring has nothing to drain.
func (r *Ring) Close(context.Context) error { return nil }

// published returns the number of events ever published.
func (r *Ring) published() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// page is one page of a cursor walk over the ring.
type page struct {
	// Events are up to limit retained events, newest first, each with
	// its publish sequence number (1-based, monotonically assigned).
	Events []loopscope.LoopEvent
	// Next is the cursor for the following (older) page, or 0 when the
	// walk is exhausted — either the ring's retention ends or event 1
	// was reached.
	Next int64
	// Total is the number of events ever published, Held the number
	// the ring retains.
	Total int64
	Held  int
}

// pageAfter returns up to limit events with sequence <= cursor that
// pass keep (nil keeps everything), newest first. A cursor <= 0 starts
// from the newest event. Sequence numbers are stable across pages, so
// a client walking Next cursors sees each retained event at most once
// even while new events are being published.
func (r *Ring) pageAfter(cursor int64, limit int, keep func(Event) bool) page {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := page{Events: []loopscope.LoopEvent{}, Total: r.total, Held: len(r.buf)}
	size := len(r.buf)
	if size == 0 || limit <= 0 {
		return p
	}
	if cursor <= 0 || cursor > r.total {
		cursor = r.total
	}
	for i := 0; i < size; i++ {
		le := r.buf[(r.next-1-i+2*size)%size]
		if le.Seq > cursor {
			continue
		}
		if len(p.Events) == limit {
			// One more retained candidate exists past the page: point at it.
			p.Next = le.Seq
			return p
		}
		if keep == nil || keep(le.Event) {
			p.Events = append(p.Events, le)
		}
	}
	return p
}
