package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// sessionTestTrace synthesizes a trace with several scripted loops.
func sessionTestTrace(t *testing.T, seed uint64, loops int) []trace.Record {
	t.Helper()
	rng := stats.NewRNG(seed)
	var dests []routing.Prefix
	for i := 0; i < 32; i++ {
		dests = append(dests, routing.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)))
	}
	cfg := traffic.SynthConfig{
		Duration: 90 * time.Second, PacketsPerSecond: 1200,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 9,
	}
	for i := 0; i < loops; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      time.Duration(rng.Int63n(int64(70 * time.Second))),
			Duration:   time.Duration(300+rng.Intn(4000)) * time.Millisecond,
			TTLDelta:   2 + rng.Intn(3),
			Revolution: time.Duration(2000+rng.Intn(4000)) * time.Microsecond,
		})
	}
	return traffic.Synthesize(cfg, rng)
}

// eventKey identifies a loop emission independently of pointer
// identity.
func eventKey(e SessionEvent) string {
	return fmt.Sprintf("%s@%d-%d/%d", e.Loop.Prefix, e.Loop.Start, e.Loop.End, len(e.Loop.Streams))
}

// TestSessionReplayEquivalence is the checkpoint/resume contract: a
// session crashed at record k and resumed by feeding a fresh session
// from its restart point — dropping what that emits before record k,
// which the first incarnation delivered, and numbering on from its
// Emitted — must, across the two incarnations, deliver exactly the
// reference run's final emissions: no duplicates, no gaps, matching Seq.
func TestSessionReplayEquivalence(t *testing.T) {
	recs := sessionTestTrace(t, 7, 10)
	cfg := DefaultConfig()
	at := floorMark(restartMarks(recs, 1))

	var ref []SessionEvent
	refSess, err := NewSession(cfg, func(e SessionEvent) { ref = append(ref, e) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		refSess.Observe(r)
	}
	refFinals := refSess.Emitted()
	if refFinals == 0 {
		t.Fatal("reference run emitted no loops; trace too quiet for the test")
	}

	for _, frac := range []float64{0.3, 0.5, 0.8} {
		k := int(float64(len(recs)) * frac)
		t.Run(fmt.Sprintf("crash-at-%d%%", int(frac*100)), func(t *testing.T) {
			// First incarnation: process records[:k], then "crash"
			// (no drain, state abandoned).
			var got []SessionEvent
			s1, err := NewSession(cfg, func(e SessionEvent) { got = append(got, e) })
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:k] {
				s1.Observe(r)
			}
			emitted := s1.Emitted()
			if s1.Records() != int64(k) {
				t.Fatalf("Records() = %d, want %d", s1.Records(), k)
			}
			r, exact := s1.RestartPoint(func(i int64) int64 { return int64(at(int(i))) })
			if !exact || r > int64(k) {
				t.Fatalf("restart point %d (exact %v) for a crash at %d", r, exact, k)
			}

			// Second incarnation: fed from the restart point, silent up
			// to record k, then live.
			live := false
			s2, err := NewSession(cfg, func(e SessionEvent) {
				if live {
					e.Seq = emitted
					emitted++
					got = append(got, e)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int(r); i < len(recs); i++ {
				live = i >= k
				s2.Observe(recs[i])
			}
			if len(got) != len(ref) {
				t.Fatalf("resumed run delivered %d events, reference %d", len(got), len(ref))
			}
			for i := range got {
				if eventKey(got[i]) != eventKey(ref[i]) {
					t.Fatalf("event %d: %s, reference %s", i, eventKey(got[i]), eventKey(ref[i]))
				}
				if got[i].Seq != ref[i].Seq {
					t.Fatalf("event %d: Seq %d, reference %d", i, got[i].Seq, ref[i].Seq)
				}
				if got[i].Truncated {
					t.Fatalf("event %d unexpectedly truncated", i)
				}
			}
			seen := map[string]bool{}
			for _, e := range got {
				k := eventKey(e)
				if seen[k] {
					t.Fatalf("duplicate emission %s", k)
				}
				seen[k] = true
			}
		})
	}
}

// TestSessionDrain checks that Drain flushes outstanding loops marked
// truncated, leaves the final sequence untouched, and that a resumed
// run still completes the truncated loops as finals.
func TestSessionDrain(t *testing.T) {
	recs := sessionTestTrace(t, 11, 8)
	cfg := DefaultConfig()

	// Find a cut where loops are still open: drain right after the
	// middle of the trace.
	k := len(recs) / 2
	var finals, truncated []SessionEvent
	s, err := NewSession(cfg, func(e SessionEvent) {
		if e.Truncated {
			truncated = append(truncated, e)
		} else {
			finals = append(finals, e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:k] {
		s.Observe(r)
	}
	before := s.Emitted()
	restart, _ := s.RestartPoint(func(i int64) int64 { return int64(floorMark(restartMarks(recs, 1))(int(i))) })
	st := s.Drain()
	if s.Emitted() != before {
		t.Fatalf("Drain advanced Emitted from %d to %d", before, s.Emitted())
	}
	if st.TotalPackets != k {
		t.Fatalf("Drain stats count %d packets, want %d", st.TotalPackets, k)
	}
	for _, e := range truncated {
		if e.Seq != -1 {
			t.Fatalf("truncated emission carries Seq %d, want -1", e.Seq)
		}
	}
	// Every truncated loop must be re-deliverable as (part of) a final
	// by a run resumed from the restart point taken before the drain.
	var resumed []SessionEvent
	s2, err := NewSession(cfg, func(e SessionEvent) { resumed = append(resumed, e) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[restart:] {
		s2.Observe(r)
	}
	s2.Drain()
	for _, tr := range truncated {
		found := false
		for _, e := range resumed {
			if e.Loop.Prefix == tr.Loop.Prefix && e.Loop.Start <= tr.Loop.Start && e.Loop.End >= tr.Loop.End {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("truncated loop %s not covered by any resumed emission", eventKey(tr))
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Observe after Drain did not panic")
		}
	}()
	s.Observe(recs[k])
}

// TestSessionMatchesStreamDetector pins Session as a thin wrapper: the
// final emissions equal the raw emitting Detector's, in order.
func TestSessionMatchesStreamDetector(t *testing.T) {
	recs := sessionTestTrace(t, 3, 6)
	cfg := DefaultConfig()

	var want []*Loop
	sd := NewStreamDetector(cfg, func(l *Loop) { want = append(want, l) })
	for _, r := range recs {
		sd.Observe(r)
	}

	var got []SessionEvent
	s, err := NewSession(cfg, func(e SessionEvent) { got = append(got, e) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		s.Observe(r)
	}
	if len(got) != len(want) {
		t.Fatalf("session emitted %d, detector %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Loop.Prefix != want[i].Prefix || got[i].Loop.Start != want[i].Start || got[i].Loop.End != want[i].End {
			t.Fatalf("emission %d differs", i)
		}
		if got[i].Seq != i {
			t.Fatalf("emission %d: Seq %d", i, got[i].Seq)
		}
	}
}

// TestSessionRetainsNoLoops: a session ends on FinishStats, never
// Finish, so its detector must not keep what it emits; in a daemon that
// list would hold every loop, stream and replica for the life of the
// process.
func TestSessionRetainsNoLoops(t *testing.T) {
	recs := sessionTestTrace(t, 11, 12)
	cfg := DefaultConfig()
	want := len(DetectRecords(recs, cfg).Loops)
	var got int
	s, err := NewSession(cfg, func(SessionEvent) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		s.Observe(r)
	}
	s.Complete()
	if want == 0 || got != want {
		t.Fatalf("session emitted %d loops, the batch run found %d", got, want)
	}
	if n := len(s.sd.loops); n != 0 {
		t.Errorf("session still holds %d of the %d loops it emitted", n, got)
	}
}

func TestNewSessionValidatesConfig(t *testing.T) {
	if _, err := NewSession(Config{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}

// errSource fails after n records.
type errSource struct {
	n   int
	pos int
}

func (s *errSource) Meta() trace.Meta { return trace.Meta{Link: "err"} }
func (s *errSource) Borrow(rec *trace.Record) error {
	if s.pos >= s.n {
		return fmt.Errorf("mid-stream fault")
	}
	s.pos++
	data := make([]byte, 40)
	data[0] = 0x45
	*rec = trace.Record{Time: time.Duration(s.pos), WireLen: 40, Data: data}
	return nil
}

// TestRunSourceErrorReleasesWorkers: a mid-stream source error must
// not leak the parallel detector's shard workers.
func TestRunSourceErrorReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		e, err := New(DefaultConfig(), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(e, &errSource{n: 1000}); err == nil {
			t.Fatal("Run swallowed the source error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}
