package flight

import (
	"fmt"
	"io"
	"time"
)

// describe renders one event as a human-readable phrase (without its
// timestamp), the same wording the /statusz page and loopdetect
// -explain use.
func (e Event) describe() string {
	st := fmt.Sprintf("%08x", uint32(e.Stream)^uint32(e.Stream>>32))
	switch e.Kind {
	case KindStreamOpen:
		return fmt.Sprintf("stream %s opened: first replica ttl=%d", st, e.TTL)
	case KindReplica:
		return fmt.Sprintf("stream %s extended: replica #%d ttl=%d delta=%d", st, e.Count, e.TTL, e.Delta)
	case KindDuplicate:
		return fmt.Sprintf("stream %s absorbed duplicate ttl=%d (delta=%d below threshold)", st, e.TTL, e.Delta)
	case KindStreamClose:
		return fmt.Sprintf("stream %s closed after %d replicas (%s)", st, e.Count, e.Reason)
	case KindCandidate:
		return fmt.Sprintf("stream %s queued as loop candidate (%d replicas)", st, e.Count)
	case KindReject:
		return fmt.Sprintf("candidate %s rejected: %s (%d replicas)", st, e.Reason, e.Count)
	case KindValidated:
		return fmt.Sprintf("stream %s validated (%d replicas)", st, e.Count)
	case KindLoopOpen:
		if e.Reason == ReasonNone {
			return "loop opened"
		}
		return fmt.Sprintf("loop opened (previous loop closed: %s)", e.Reason)
	case KindMerge:
		if e.Gap <= 0 {
			return fmt.Sprintf("stream merged into open loop (overlap, now %d streams)", e.Count)
		}
		return fmt.Sprintf("stream merged into open loop (gap %v, now %d streams)", e.Gap, e.Count)
	case KindLoopFinal:
		return fmt.Sprintf("loop finalized: %d streams", e.Count)
	}
	return fmt.Sprintf("%s stream=%s", e.Kind, st)
}

// RenderTrail writes a trail as an indented, timestamped decision log.
func RenderTrail(w io.Writer, t *Trail) {
	if t == nil {
		fmt.Fprintln(w, "no trail")
		return
	}
	fmt.Fprintf(w, "loop %s  prefix=%s  start=%v  end=%v  duration=%v\n",
		t.ID, t.Prefix,
		time.Duration(t.StartNs), time.Duration(t.EndNs),
		time.Duration(t.EndNs-t.StartNs))
	if t.Truncated {
		fmt.Fprintln(w, "  (trail truncated: the event ring wrapped past the start of this window)")
	}
	if len(t.Events) == 0 {
		fmt.Fprintln(w, "  (no recorded events in window)")
		return
	}
	for _, ev := range t.Events {
		fmt.Fprintf(w, "  %12v  %-12s %s\n", ev.Time, ev.Kind, ev.describe())
	}
}
