package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"loopscope/internal/trace"
)

// TestEnginesDoNotRetainRecordData holds every engine kind to the
// no-retain rule of Observe: fed records whose Data lives in one buffer
// that is scribbled over as soon as each Observe returns — what a
// borrowing reader does to its window — an engine finds and emits
// exactly what it does on records it may keep.
func TestEnginesDoNotRetainRecordData(t *testing.T) {
	cfg := DefaultConfig()
	// Each engine runs over feed, which hands its Observe the records.
	type feed func(observe func(trace.Record))
	engines := map[string]func(feed) any{
		"Detector": func(in feed) any {
			d := NewDetector(cfg)
			in(d.Observe)
			return d.Finish()
		},
		"stream Detector": func(in feed) any {
			var emitted []*Loop
			d := NewStreamDetector(cfg, func(l *Loop) { emitted = append(emitted, l) })
			in(d.Observe)
			return []any{d.finishStats(), emitted}
		},
		"Session": func(in feed) any {
			var events []SessionEvent
			s, err := NewSession(cfg, func(ev SessionEvent) { events = append(events, ev) })
			if err != nil {
				t.Fatal(err)
			}
			in(s.Observe)
			return []any{s.Complete(), events}
		},
	}
	for _, workers := range []int{1, 2, 4} {
		engines[fmt.Sprintf("parallelDetector/%d", workers)] = func(in feed) any {
			p := newParallelDetector(cfg, workers, nil, nil)
			in(p.Observe)
			return p.Finish()
		}
	}
	traces := map[string][]trace.Record{
		"random":    randomTrace(3, 20*time.Second, 1000, 4),
		"loopstorm": loopStormTrace(5),
	}
	for name, recs := range traces {
		owned := func(observe func(trace.Record)) {
			for _, r := range recs {
				observe(r)
			}
		}
		borrowed := func(observe func(trace.Record)) {
			buf := make([]byte, 64)
			for _, r := range recs {
				n := copy(buf, r.Data)
				r.Data = buf[:n:n]
				observe(r)
				for i := range buf {
					buf[i] = 0xff
				}
			}
		}
		for kind, run := range engines {
			if got, want := run(borrowed), run(owned); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on the %s trace: borrowed records give another result than owned ones", kind, name)
			}
		}
	}
}

// TestParallelBatchesIgnoreCaptureLength: a shard is handed a full
// batch of records whatever their length, so full-packet captures cost
// no more hand-offs per record than 40-byte snapshots.
func TestParallelBatchesIgnoreCaptureLength(t *testing.T) {
	recs := randomTrace(5, 10*time.Second, 1000, 2)
	var short atomic.Int64
	shardConsumeHook = func(_ int, b []trace.Record) {
		if len(b) < trace.DefaultBatchSize {
			short.Add(1)
		}
	}
	t.Cleanup(func() { shardConsumeHook = nil })
	const workers = 2
	p := newParallelDetector(DefaultConfig(), workers, nil, nil)
	for _, r := range recs {
		r.Data = append(r.Data[:len(r.Data):len(r.Data)], make([]byte, 1500-len(r.Data))...)
		p.Observe(r)
	}
	p.Finish()
	if n := short.Load(); n > workers {
		t.Errorf("%d batches of 1,500-byte records were handed off short; want at most the %d final ones", n, workers)
	}
}

// TestParallelHandOffAllocationBudget: once its batches circulate, the
// parallel hand-off allocates nothing per record. Batches of records
// and indices made fresh for each hand-off cost 56 B per record.
func TestParallelHandOffAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	recs := randomTrace(99, 30*time.Second, 2000, 0)
	p := newParallelDetector(DefaultConfig(), 2, nil, nil)
	warm := len(recs) / 2
	var warmed, end runtime.MemStats
	for _, r := range recs[:warm] {
		p.Observe(r)
	}
	runtime.ReadMemStats(&warmed)
	for _, r := range recs[warm:] {
		p.Observe(r)
	}
	p.Finish()
	runtime.ReadMemStats(&end)
	size := float64(end.TotalAlloc-warmed.TotalAlloc) / float64(len(recs)-warm)
	t.Logf("%d records: %.4f allocs and %.2f B per record once warm, Finish included",
		len(recs), float64(end.Mallocs-warmed.Mallocs)/float64(len(recs)-warm), size)
	if size > 4 {
		t.Errorf("parallelDetector.Observe at 2 workers allocates %.2f B per record once warm; budget 4", size)
	}
}
