package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"loopscope/internal/trace"
)

// restartMarks returns the indices a caller could re-read recs from:
// record 0 and, every step records at the least, a record stamped later
// than the one before it.
func restartMarks(recs []trace.Record, step int) []int {
	marks := []int{0}
	for i := 1; i < len(recs); i++ {
		if i-marks[len(marks)-1] >= step && recs[i].Time > recs[i-1].Time {
			marks = append(marks, i)
		}
	}
	return marks
}

// floorMark is restartPoint's at over marks.
func floorMark(marks []int) func(int) int {
	return func(i int) int { return marks[sort.SearchInts(marks, i+1)-1] }
}

// emittedKey renders a loop with everything a resumed daemon publishes of
// it: prefix, extent and every stream's replicas and identity.
func emittedKey(l *Loop) string {
	key := fmt.Sprintf("%v %v..%v", l.Prefix, l.Start, l.End)
	for _, s := range l.Streams {
		key += fmt.Sprintf(" [%x %v]", s.Ident, s.Replicas)
	}
	return key
}

// resumeAt feeds recs[:cut] to a tracking detector, takes its restart
// point, and returns what it and a fresh detector fed from there emit
// after the cut, in order, end of trace included.
func resumeAt(t *testing.T, cfg Config, recs []trace.Record, cut int, at func(int) int) (orig, fresh []string, r int) {
	t.Helper()
	live := false
	d := NewStreamDetector(cfg, func(l *Loop) {
		if live {
			orig = append(orig, emittedKey(l))
		}
	})
	d.spans = []span{}
	for _, rec := range recs[:cut] {
		d.Observe(rec)
	}
	r, exact := d.restartPoint(at)
	if !exact || r > cut || at(r) != r {
		t.Fatalf("cut %d: restart point %d, exact %v", cut, r, exact)
	}
	live = true
	for _, rec := range recs[cut:] {
		d.Observe(rec)
	}
	d.finishStats()

	f := NewStreamDetector(cfg, func(l *Loop) {
		if live {
			fresh = append(fresh, emittedKey(l))
		}
	})
	for i := r; i < len(recs); i++ {
		live = i >= cut
		f.observeAt(recs[i], i)
	}
	live = true
	f.finishStats()
	return orig, fresh, r
}

// FuzzRestartPoint proves the restart point: on a random trace cut at a
// random record, a fresh detector fed from the restart point emits after
// the cut exactly what the original emits, in the same order — with a
// mark on every record it can, and with marks at least 16 records
// apart, so the sweep back over member streams has to iterate.
func FuzzRestartPoint(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint16(seed*37), fuzzSeed(randomTrace(seed, 3*time.Second, 60, 2)))
	}
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, cutAt uint16, data []byte) {
		recs := fuzzTrace(t, data)
		cut := int(cutAt) % (len(recs) + 1)
		for _, step := range []int{1, 16} {
			orig, fresh, r := resumeAt(t, cfg, recs, cut, floorMark(restartMarks(recs, step)))
			if !reflect.DeepEqual(orig, fresh) {
				t.Fatalf("marks %d apart, cut %d of %d, restart %d:\noriginal %q\nresumed  %q", step, cut, len(recs), r, orig, fresh)
			}
		}
	})
}

// TestRestartPointCostsTheUndecidedTail: on loop-free traffic at one
// rate, the restart point trails the cut by what MaxReplicaGap holds,
// whether the cut falls after 12 s of trace or after 60 s.
func TestRestartPointCostsTheUndecidedTail(t *testing.T) {
	cfg := DefaultConfig()
	recs := randomTrace(3, 64*time.Second, 500, 0)
	marks := restartMarks(recs, 1)
	var tails []int
	for _, at := range []time.Duration{12 * time.Second, 60 * time.Second} {
		cut := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= at })
		_, _, r := resumeAt(t, cfg, recs, cut, floorMark(marks))
		tails = append(tails, cut-r)
		if gap := recs[cut].Time - recs[r].Time; gap > cfg.MaxReplicaGap+cfg.MaxReplicaGap/2 {
			t.Errorf("cut at %v: restart point %v earlier", at, gap)
		}
	}
	if lo, hi := min(tails[0], tails[1]), max(tails[0], tails[1]); hi > lo+lo/4 {
		t.Errorf("records to re-feed: %d after 12 s, %d after 60 s", tails[0], tails[1])
	}
}

// TestRestartPointAfterShedding: under a cap the governor sheds up to
// the end of this trace, so at or after any restart point, and the
// restart point says it is not exact; with no cap it is.
func TestRestartPointAfterShedding(t *testing.T) {
	recs := randomTrace(4, 6*time.Second, 2000, 2)
	at := floorMark(restartMarks(recs, 1))
	for _, limit := range []int{0, 64} {
		cfg := DefaultConfig()
		cfg.MaxActiveStreams = limit
		s, err := NewSession(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			s.Observe(r)
		}
		_, exact := s.RestartPoint(func(i int64) int64 { return int64(at(int(i))) })
		shed := s.Shed()
		if shedding := shed.Streams+shed.Packets > 0; shedding != (limit > 0) || exact == shedding {
			t.Errorf("cap %d: shed %+v, restart point exact %v", limit, shed, exact)
		}
	}
}
