package serve

import (
	"slices"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/routing"
)

// TestEventPathAllocationBudget: rendering a finalized loop as a sink
// event and as an analytics observation allocates as much for a
// 20-stream loop as for a one-stream loop — nothing per stream. Every
// stream escapes, so each one's TTL decrement is counted three times.
func TestEventPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	loop := func(streams int) *core.Loop {
		l := &core.Loop{Prefix: routing.MustParsePrefix("198.18.7.0/24")}
		for i := 0; i < streams; i++ {
			s := &core.ReplicaStream{ID: i, Prefix: l.Prefix}
			for j := 0; j < 16; j++ {
				at := time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond
				s.Replicas = append(s.Replicas, core.Replica{Time: at, TTL: uint8(60 - 2*j), Index: 16*i + j})
			}
			l.Streams = append(l.Streams, s)
		}
		l.Start, l.End = l.Streams[0].Start(), l.Streams[streams-1].End()
		return l
	}
	var ev Event
	var o analytics.LoopObs
	allocs := func(l *core.Loop) float64 {
		se := core.SessionEvent{Loop: l, Seq: 3}
		return testing.AllocsPerRun(200, func() {
			ev = newEvent("src", "link", "vantage", se, time.Unix(1, 0))
			o = analytics.ObsFromLoop(ev.ID, l)
		})
	}
	one, twenty := allocs(loop(1)), allocs(loop(20))
	t.Logf("newEvent + ObsFromLoop: %.0f allocs at 1 stream, %.0f at 20", one, twenty)
	if ev.Escaped != 20 || len(o.EscapeDelaysNs) != 20 || ev.TTLDelta != 2 {
		t.Fatalf("20-stream loop rendered as %d escaped, %d delays, TTL delta %d", ev.Escaped, len(o.EscapeDelaysNs), ev.TTLDelta)
	}
	if twenty > one {
		t.Errorf("a 20-stream loop costs %.0f allocs, one stream %.0f: the event path allocates per stream", twenty, one)
	}
}

// TestLoopIdents: the sketch is the MaxIdents smallest distinct stream
// identities in ascending order, in one allocation.
func TestLoopIdents(t *testing.T) {
	l := &core.Loop{}
	for _, id := range []uint64{90, 7, 33, 7, 1 << 63, 12, 5, 61, 33, 2, 48, 19, 3} {
		l.Streams = append(l.Streams, &core.ReplicaStream{Ident: id})
	}
	want := []uint64{2, 3, 5, 7, 12, 19, 33, 48}
	if got := LoopIdents(l); !slices.Equal(got, want) {
		t.Errorf("LoopIdents = %v, want %v", got, want)
	}
	if got := LoopIdents(&core.Loop{Streams: l.Streams[:2]}); !slices.Equal(got, []uint64{7, 90}) {
		t.Errorf("two streams: LoopIdents = %v, want [7 90]", got)
	}
	if got := LoopIdents(&core.Loop{}); got != nil {
		t.Errorf("no streams: LoopIdents = %v, want nil", got)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { LoopIdents(l) }); n != 1 {
			t.Errorf("LoopIdents allocates %.0f times, want 1", n)
		}
	}
}
