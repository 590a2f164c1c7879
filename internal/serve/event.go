// Package serve is loopscope's continuous-operation subsystem: a
// supervised daemon core that follows live trace sources (growing
// files, rotated capture directories, record feeds over TCP/unix
// sockets), drives the bounded-memory detection engine per source, and
// publishes finalized loop events to pluggable sinks — an append-only
// JSONL journal, a webhook POST sink, and an in-memory ring behind an
// HTTP API. A periodic checkpoint makes restarts resume without
// re-emitting: it stores each source's position and restart point, and
// a restarted source re-feeds a fresh detector from the restart point
// up to the position, publishing nothing, whether the restart point is
// in the same file or in an earlier segment. SIGTERM-style shutdown
// drains the detectors, flushing partial loops marked truncated.
//
// Delivery semantics: the pipeline is at-least-once end to end — after
// a crash, events emitted between the last checkpoint and the crash
// are re-emitted on resume. The journal deduplicates by event ID, so
// it is exactly-once; the webhook sink can deliver duplicates and
// receivers must treat the event ID as idempotency key.
package serve

import (
	"context"
	"fmt"
	"slices"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/obs/flight"
	"loopscope/pkg/loopscope"
)

// Event is one routing-loop detection, the unit every sink consumes.
// Its wire form is declared in pkg/loopscope.
type Event = loopscope.Event

// newEvent renders a session emission as a sink event.
func newEvent(source, link, vantage string, se core.SessionEvent, now time.Time) Event {
	l := se.Loop
	ev := Event{
		Source:      source,
		Vantage:     vantage,
		Link:        link,
		Prefix:      l.Prefix.String(),
		Seq:         se.Seq,
		StartNs:     int64(l.Start),
		EndNs:       int64(l.End),
		DurationNs:  int64(l.End - l.Start),
		Streams:     len(l.Streams),
		Replicas:    l.Replicas(),
		Truncated:   se.Truncated,
		Idents:      LoopIdents(l),
		EmittedAtNs: now.UnixNano(),
	}
	if len(l.Streams) > 0 {
		ev.TTLDelta = l.Streams[0].TTLDelta()
	}
	for _, s := range l.Streams {
		if s.Escaped() {
			ev.Escaped++
		}
	}
	// The flight recorder owns the ID hash, so a sealed trail and the
	// journal line for the same loop share one ID.
	ev.ID = flight.LoopID(source, ev.Prefix, ev.StartNs)
	if se.Truncated {
		ev.ID = fmt.Sprintf("%s-t%x", ev.ID, ev.EndNs)
	}
	return ev
}

// LoopIdents reduces a loop to its identity sketch, Event.Idents: the
// loopscope.MaxIdents smallest distinct stream identities, ascending,
// or nil for a loop without streams. It allocates once, whatever the
// stream count.
func LoopIdents(l *core.Loop) []uint64 {
	var low [loopscope.MaxIdents]uint64
	n := 0
	for _, s := range l.Streams {
		if i, found := slices.BinarySearch(low[:n], s.Ident); !found && i < len(low) {
			n = min(n+1, len(low))
			copy(low[i+1:n], low[i:n-1])
			low[i] = s.Ident
		}
	}
	return append([]uint64(nil), low[:n]...)
}

// Sink consumes loop events. Publish must be safe for concurrent use
// and must never block detection for long: sinks with slow backends
// queue internally and drop (counted) when the queue is full. Close
// drains whatever is queued, giving up when ctx expires.
type Sink interface {
	Name() string
	Publish(Event)
	Close(ctx context.Context) error
}
