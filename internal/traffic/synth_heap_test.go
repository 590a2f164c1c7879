package traffic

import (
	"container/heap"
	"testing"
	"time"

	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// boxedHeap is the container/heap implementation recordHeap replaced.
type boxedHeap []trace.Record

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].Time < h[j].Time }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(trace.Record)) }
func (h *boxedHeap) Pop() any          { old := *h; n := len(old); r := old[n-1]; *h = old[:n-1]; return r }

// TestRecordHeapBreaksTiesLikeContainerHeap: under a random schedule of
// pushes and pops over a handful of distinct timestamps — almost every
// comparison a tie, which the golden traces never produce — the key
// heap pops the very records container/heap pops (WireLen tags them),
// through arena slots that are freed and reused all along.
func TestRecordHeapBreaksTiesLikeContainerHeap(t *testing.T) {
	rng := stats.NewRNG(3)
	var typed recordHeap
	var boxed boxedHeap
	for i := 0; i < 20000; i++ {
		if len(typed.keys) > 0 && rng.Intn(5) < 2 {
			got, want := typed.pop(), heap.Pop(&boxed).(trace.Record)
			if got.Time != want.Time || got.WireLen != want.WireLen {
				t.Fatalf("step %d: popped (%v, #%d), container/heap pops (%v, #%d)",
					i, got.Time, got.WireLen, want.Time, want.WireLen)
			}
			continue
		}
		r := trace.Record{Time: time.Duration(rng.Intn(4)), WireLen: i}
		typed.push(r)
		heap.Push(&boxed, r)
	}
}
