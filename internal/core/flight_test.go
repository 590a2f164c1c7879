package core

import (
	"fmt"
	"testing"
	"time"

	"loopscope/internal/obs/flight"
	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// flightTestTrace synthesizes a trace with two mergeable replica
// streams towards one prefix, a second independent loop, a discarded
// pair, and background noise.
func flightTestTrace(t *testing.T) []trace.Record {
	t.Helper()
	var recs []trace.Record
	// Loop A: two streams towards 203.0.113.0/24, 960ms apart — they
	// merge (gap < MergeWindow, nothing contradicting in between).
	recs = append(recs, replicaRun(t, 1*time.Second, 10*time.Millisecond,
		mkPkt("192.0.2.1", "203.0.113.5", 101, 62, 1), 5, 2)...)
	recs = append(recs, replicaRun(t, 2*time.Second, 10*time.Millisecond,
		mkPkt("192.0.2.1", "203.0.113.9", 102, 60, 2), 5, 2)...)
	// Loop B: one stream towards 198.51.100.0/24.
	recs = append(recs, replicaRun(t, 3*time.Second, 5*time.Millisecond,
		mkPkt("192.0.2.7", "198.51.100.20", 201, 58, 3), 8, 2)...)
	// A discarded pair towards 192.0.2.0/24.
	recs = append(recs, replicaRun(t, 4*time.Second, 5*time.Millisecond,
		mkPkt("198.51.100.1", "192.0.2.33", 301, 64, 4), 2, 2)...)
	// Background noise: single packets to scattered prefixes.
	for i := 0; i < 40; i++ {
		recs = append(recs, rec(t, time.Duration(i)*100*time.Millisecond,
			mkPkt("10.0.0.1", fmt.Sprintf("10.9.%d.1", i), uint16(1000+i), 64, uint64(i))))
	}
	sortRecords(recs)
	return recs
}

func flightLoopKey(l *Loop) string {
	return fmt.Sprintf("%s %v %v %d", l.Prefix, l.Start, l.End, len(l.Streams))
}

// TestFlightDoesNotChangeResults proves recording is a pure observer:
// every engine variant produces the identical loop set with and
// without a recorder attached.
func TestFlightDoesNotChangeResults(t *testing.T) {
	recs := flightTestTrace(t)
	cfg := DefaultConfig()
	variants := []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"parallel", []Option{WithWorkers(4)}},
		{"streaming", []Option{WithStreaming(nil)}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			plain, err := New(cfg, v.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rec := flight.New(flight.Options{SampleEvery: 1})
			instrumented, err := New(cfg, append([]Option{WithFlight(rec)}, v.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				plain.Observe(r)
				instrumented.Observe(r)
			}
			a, b := plain.Finish(), instrumented.Finish()
			if len(a.Loops) != len(b.Loops) {
				t.Fatalf("loops: plain %d, instrumented %d", len(a.Loops), len(b.Loops))
			}
			for i := range a.Loops {
				if flightLoopKey(a.Loops[i]) != flightLoopKey(b.Loops[i]) {
					t.Errorf("loop %d differs: %s vs %s", i, flightLoopKey(a.Loops[i]), flightLoopKey(b.Loops[i]))
				}
			}
			if len(a.Loops) != 2 {
				t.Fatalf("loops = %d, want 2 (merged A and B; the pair is not a loop)", len(a.Loops))
			}
			if rec.Stats().Events == 0 {
				t.Error("recorder saw no events")
			}
		})
	}
}

// kindsOf summarizes which kinds a trail contains.
func kindsOf(tr *flight.Trail) map[flight.Kind]int {
	m := make(map[flight.Kind]int)
	for _, ev := range tr.Events {
		m[ev.Kind]++
	}
	return m
}

// TestFlightTrailLifecycle checks the sealed trail of a merged loop
// tells the whole story: open -> extend -> candidate -> validated ->
// merge -> finalize, for batch and streaming engines alike.
func TestFlightTrailLifecycle(t *testing.T) {
	recs := flightTestTrace(t)
	cfg := DefaultConfig()
	for _, variant := range []string{"sequential", "streaming", "parallel"} {
		t.Run(variant, func(t *testing.T) {
			rec := flight.New(flight.Options{SampleEvery: 1})
			var opts []Option
			switch variant {
			case "streaming":
				opts = []Option{WithStreaming(nil)}
			case "parallel":
				opts = []Option{WithWorkers(4)}
			}
			e, err := New(cfg, append([]Option{WithFlight(rec)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				e.Observe(r)
			}
			res := e.Finish()
			if len(res.Loops) == 0 {
				t.Fatal("no loops")
			}
			margin := cfg.MergeWindow + 2*cfg.MaxReplicaGap
			var merged *Loop
			for _, l := range res.Loops {
				if len(l.Streams) == 2 {
					merged = l
				}
			}
			if merged == nil {
				t.Fatal("no merged loop in fixture")
			}
			tr := rec.Seal("test", merged.Prefix, merged.Start, merged.End, margin)
			k := kindsOf(tr)
			if k[flight.KindStreamOpen] != 2 {
				t.Errorf("stream-open = %d, want 2:\n%+v", k[flight.KindStreamOpen], tr.Events)
			}
			if k[flight.KindReplica] == 0 {
				t.Error("no replica events")
			}
			if k[flight.KindValidated] != 2 {
				t.Errorf("validated = %d, want 2", k[flight.KindValidated])
			}
			if k[flight.KindMerge] != 1 {
				t.Errorf("merge = %d, want 1", k[flight.KindMerge])
			}
			if k[flight.KindLoopOpen] != 1 || k[flight.KindLoopFinal] != 1 {
				t.Errorf("loop-open = %d, loop-final = %d, want 1 each",
					k[flight.KindLoopOpen], k[flight.KindLoopFinal])
			}
			// The merge event carries the inter-stream gap.
			for _, ev := range tr.Events {
				if ev.Kind == flight.KindMerge && ev.Gap <= 0 {
					t.Errorf("merge event gap = %v, want > 0", ev.Gap)
				}
			}
		})
	}
}

// TestFlightRejectReasons checks the reason enum on the two step-2
// gates: the pair bar and subnet invalidation.
func TestFlightRejectReasons(t *testing.T) {
	cfg := DefaultConfig()
	var recs []trace.Record
	// A pair (2 replicas): below the evidence bar.
	pairPfx := "192.0.2.0/24"
	recs = append(recs, replicaRun(t, time.Second, 5*time.Millisecond,
		mkPkt("198.51.100.1", "192.0.2.33", 301, 64, 4), 2, 2)...)
	// A 5-replica stream refuted by a non-member packet towards the
	// same /24 inside its window.
	invPfx := "203.0.113.0/24"
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond,
		mkPkt("192.0.2.1", "203.0.113.5", 101, 62, 1), 5, 2)...)
	recs = append(recs, rec(t, 1020*time.Millisecond,
		mkPkt("10.0.0.1", "203.0.113.77", 999, 64, 9)))
	sortRecords(recs)

	fr := flight.New(flight.Options{SampleEvery: 1})
	d := NewDetector(cfg)
	d.setFlight(fr.Shard(0))
	for _, r := range recs {
		d.Observe(r)
	}
	res := d.Finish()
	if len(res.Loops) != 0 {
		t.Fatalf("loops = %d, want 0", len(res.Loops))
	}

	reasons := func(prefix string) map[flight.Reason]int {
		m := make(map[flight.Reason]int)
		tr := fr.Seal(prefix, routing.MustParsePrefix(prefix), 0, 10*time.Second, 0)
		for _, ev := range tr.Events {
			if ev.Kind == flight.KindReject {
				m[ev.Reason]++
			}
		}
		return m
	}
	if r := reasons(pairPfx); r[flight.ReasonPairDiscarded] != 1 {
		t.Errorf("pair prefix rejects = %v, want one pair-discarded", r)
	}
	if r := reasons(invPfx); r[flight.ReasonSubnetInvalidated] != 1 {
		t.Errorf("invalidated prefix rejects = %v, want one subnet-invalidated", r)
	}
}
