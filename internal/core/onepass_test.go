package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// TestEntriesCompactionIsInvisible drives a prefixState's entry window
// with random add / evict / mark / clean scripts beside the plainest
// model of it — append, re-slice — and requires the same sequence
// numbers and the same clean answers throughout, from an array that
// never exceeds four times the most entries ever live at once.
func TestEntriesCompactionIsInvisible(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := stats.NewRNG(seed)
		ps := &prefixState{}
		var model []pktEntry // model[i] has sequence number modelBase+i
		modelBase, peakLive := 0, 0
		var now time.Duration
		// Phases of growth and of heavy eviction, so the window both
		// slides within its array and outgrows it.
		for step := 0; step < 4000; step++ {
			growing := (step/500)%2 == 0
			switch op := rng.Intn(10); {
			case op < 6 || (growing && op < 8):
				now += time.Duration(rng.Intn(3)) * time.Millisecond // equal timestamps happen
				got := ps.add(now)
				model = append(model, pktEntry{t: now})
				if want := modelBase + len(model) - 1; got != want {
					t.Fatalf("seed %d step %d: add returned sequence %d, want %d", seed, step, got, want)
				}
			case op < 9:
				if len(model) == 0 {
					continue
				}
				cut := rng.Intn(len(model) + 1)
				if growing {
					cut = rng.Intn(len(model)/8 + 1)
				}
				ps.dropFront(cut)
				model, modelBase = model[cut:], modelBase+cut
			default:
				if len(model) == 0 {
					continue
				}
				seq := modelBase + rng.Intn(len(model))
				ps.entries[seq-ps.base].member = true
				model[seq-modelBase].member = true
			}
			peakLive = max(peakLive, len(model))
			if ps.base != modelBase || !reflect.DeepEqual(append([]pktEntry{}, ps.entries...), append([]pktEntry{}, model...)) {
				t.Fatalf("seed %d step %d: window differs from the model (base %d vs %d, %d vs %d entries)",
					seed, step, ps.base, modelBase, len(ps.entries), len(model))
			}
			if len(ps.store) > 4*peakLive {
				t.Fatalf("seed %d step %d: array of %d entries for a peak of %d live", seed, step, len(ps.store), peakLive)
			}
			if n := len(ps.entries); n > 0 && &ps.entries[:cap(ps.entries)][cap(ps.entries)-1] != &ps.store[len(ps.store)-1] {
				t.Fatalf("seed %d step %d: the window's capacity does not end where the array does", seed, step)
			}
			from := now - time.Duration(rng.Intn(40))*time.Millisecond
			to := from + time.Duration(rng.Intn(40))*time.Millisecond
			want := true
			for _, e := range model {
				if e.t >= from && e.t <= to && !e.member {
					want = false
				}
			}
			if got := ps.clean(from, to); got != want {
				t.Fatalf("seed %d step %d: clean(%v, %v) = %v, want %v", seed, step, from, to, got, want)
			}
		}
	}
}

// TestRecordIndexIsOnlyReported: the index a record is observed at ends up
// in the Replica that reports it and decides nothing else, so a shard
// numbering its records by their place in the whole trace finds what a
// detector counting from zero finds.
func TestRecordIndexIsOnlyReported(t *testing.T) {
	at := func(i int) int { return 7 + 3*i + i/5 } // increasing, with gaps: a shard's share of a trace
	for seed := uint64(1); seed <= 8; seed++ {
		recs := randomTrace(seed, 10*time.Second, 700, 3)
		want := DetectRecords(recs, DefaultConfig())
		d := NewDetector(DefaultConfig())
		for i, r := range recs {
			d.observeAt(r, at(i))
		}
		got := d.Finish()
		if len(want.Streams) == 0 {
			t.Fatalf("seed %d: no streams to compare", seed)
		}
		for _, s := range want.Streams {
			for i := range s.Replicas {
				s.Replicas[i].Index = at(s.Replicas[i].Index)
			}
		}
		got.TotalPackets = want.TotalPackets // Membership() sizes by it; the indices here exceed it
		if !reflect.DeepEqual(got.Streams, want.Streams) || !reflect.DeepEqual(got.Loops, want.Loops) {
			t.Fatalf("seed %d: result depends on the indices observed at", seed)
		}
		got.Streams, want.Streams, got.Loops, want.Loops = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: counters differ: %+v vs %+v", seed, got, want)
		}
	}
}

// extractFromSlice is ExtractLoopRecords as it was when the whole trace
// was in memory: index into the slice for the replicas, binary-search
// the context window.
func extractFromSlice(recs []trace.Record, l *Loop, context time.Duration) []trace.Record {
	take := make(map[int]bool)
	for _, s := range l.Streams {
		for _, r := range s.Replicas {
			take[r.Index] = true
		}
	}
	idxs := make([]int, 0, len(take))
	for idx := range take {
		idxs = append(idxs, idx)
	}
	if context > 0 {
		lo, hi := l.Start-context, l.End+context
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= lo })
		for ; i < len(recs) && recs[i].Time <= hi; i++ {
			if dst, err := decodeDst(recs[i].Data); !take[i] && err == nil && l.Prefix.Contains(dst) {
				idxs = append(idxs, i)
			}
		}
	}
	sort.Ints(idxs)
	out := make([]trace.Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, recs[i])
	}
	return out
}

// TestExtractFromSourceMatchesSlice: picking a loop's evidence out of a
// source as it streams by finds the records indexing the slice found.
func TestExtractFromSourceMatchesSlice(t *testing.T) {
	loops := 0
	for seed := uint64(1); seed <= 10; seed++ {
		recs := randomTrace(seed, 12*time.Second, 900, 3)
		for _, l := range DetectRecords(recs, DefaultConfig()).Loops {
			loops++
			for _, context := range []time.Duration{0, time.Second, 5 * time.Second} {
				want := extractFromSlice(recs, l, context)
				src := trace.NewSliceSource(trace.Meta{}, recs)
				got, err := ExtractLoopSource(src, l, context)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d loop %v context %v: %d records from the source, %d from the slice",
						seed, l.Prefix, context, len(got), len(want))
				}
				if !reflect.DeepEqual(ExtractLoopRecords(recs, l, context), want) {
					t.Fatalf("seed %d loop %v context %v: slice form differs", seed, l.Prefix, context)
				}
				// It stops reading once nothing further can be evidence.
				if rest, _ := trace.ReadAll(src); context > 0 && l.End+context < recs[len(recs)-1].Time && len(rest) == 0 {
					t.Errorf("seed %d loop %v context %v: read the whole trace", seed, l.Prefix, context)
				}
			}
		}
	}
	if loops == 0 {
		t.Fatal("no loops to extract")
	}
}
