package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"loopscope/internal/obs/flight"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// randomTrace synthesizes a trace with a random background workload
// and a random set of scripted loops, returning the trace.
func randomTrace(seed uint64, dur time.Duration, pps float64, nLoops int) []trace.Record {
	return randomTraceOver(seed, dur, pps, nLoops, []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("198.51.101.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
		routing.MustParsePrefix("192.168.7.0/24"),
		routing.MustParsePrefix("192.0.2.0/24"),
	})
}

// randomTraceOver is randomTrace towards the prefixes dests.
func randomTraceOver(seed uint64, dur time.Duration, pps float64, nLoops int, dests []routing.Prefix) []trace.Record {
	rng := stats.NewRNG(seed)
	cfg := traffic.SynthConfig{
		Duration:         dur,
		PacketsPerSecond: pps,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3, HopsMax: 9,
	}
	for i := 0; i < nLoops; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      time.Duration(rng.Int63n(int64(dur * 3 / 4))),
			Duration:   time.Duration(100+rng.Intn(3000)) * time.Millisecond,
			TTLDelta:   2 + rng.Intn(5),
			Revolution: time.Duration(1+rng.Intn(8)) * time.Millisecond,
		})
	}
	return traffic.Synthesize(cfg, rng)
}

// TestStreamInvariantsQuick: every validated stream must satisfy the
// paper's replica definition — strictly decreasing TTLs with deltas of
// at least MinTTLDelta, time-ordered replicas, at least MinReplicas of
// them, all towards one /24.
func TestStreamInvariantsQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		recs := randomTrace(seed, 10*time.Second, 800, 3)
		res := DetectRecords(recs, cfg)
		for _, s := range res.Streams {
			if s.Count() < cfg.MinReplicas {
				return false
			}
			for i := 1; i < len(s.Replicas); i++ {
				prev, cur := s.Replicas[i-1], s.Replicas[i]
				if cur.Time < prev.Time {
					return false
				}
				if int(prev.TTL)-int(cur.TTL) < cfg.MinTTLDelta {
					return false
				}
				if cur.Time-prev.Time > cfg.MaxReplicaGap {
					return false
				}
			}
			if s.Prefix.Bits != cfg.PrefixBits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMembershipConsistencyQuick: the membership index and the stream
// list must agree exactly.
func TestMembershipConsistencyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		recs := randomTrace(seed, 8*time.Second, 600, 2)
		res := DetectRecords(recs, DefaultConfig())
		membership := res.Membership()
		if len(membership) != len(recs) {
			return false
		}
		fromStreams := make(map[int]int32)
		for _, s := range res.Streams {
			for _, r := range s.Replicas {
				fromStreams[r.Index] = int32(s.ID)
			}
		}
		for i, m := range membership {
			want, ok := fromStreams[i]
			if ok != (m >= 0) {
				return false
			}
			if ok && want != m {
				return false
			}
		}
		return len(fromStreams) == res.LoopedPackets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLoopInvariantsQuick: merged loops must cover their streams, stay
// within one prefix, and same-prefix loops must be separated by at
// least the merge window OR a non-looped packet.
func TestLoopInvariantsQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		recs := randomTrace(seed, 12*time.Second, 700, 4)
		res := DetectRecords(recs, cfg)
		seen := make(map[int]bool)
		for _, l := range res.Loops {
			if len(l.Streams) == 0 {
				return false
			}
			for _, s := range l.Streams {
				if s.Prefix != l.Prefix {
					return false
				}
				if s.Start() < l.Start || s.End() > l.End {
					return false
				}
				if seen[s.ID] {
					return false // stream in two loops
				}
				seen[s.ID] = true
			}
		}
		// Every validated stream belongs to exactly one loop.
		return len(seen) == len(res.Streams)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialNaiveQuick: the hash-indexed detector and the naive
// quadratic reference must produce identical results on random
// traces.
func TestDifferentialNaiveQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		recs := randomTrace(seed, 6*time.Second, 500, 3)
		a := DetectRecords(recs, cfg)
		b := NaiveDetectRecords(recs, cfg)
		if len(a.Streams) != len(b.Streams) || len(a.Loops) != len(b.Loops) ||
			a.LoopedPackets != b.LoopedPackets ||
			a.PairsDiscarded != b.PairsDiscarded ||
			a.SubnetInvalidated != b.SubnetInvalidated {
			return false
		}
		for i := range a.Streams {
			sa, sb := a.Streams[i], b.Streams[i]
			if sa.Prefix != sb.Prefix || sa.Count() != sb.Count() ||
				sa.Start() != sb.Start() || sa.End() != sb.End() {
				return false
			}
		}
		for i := range a.Loops {
			la, lb := a.Loops[i], b.Loops[i]
			if la.Prefix != lb.Prefix || la.Start != lb.Start || la.End != lb.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// runFingerprint is everything about a run that must not vary between
// runs over the same input: per emitted loop, in emission order, its
// extent and each stream's (ID, first-replica index); and, per
// destination prefix, the flight-event sequence.
type runFingerprint struct {
	loops  []string
	events map[routing.Prefix][]flight.Event
}

// fingerprintRun drives one engine over recs. drive feeds the records
// and returns the loops in the order the engine delivered them;
// keepSeq is false for the sharded engine, whose global event numbers
// interleave by goroutine scheduling (within a prefix — one shard —
// the order is still fixed, and that is what is compared).
func fingerprintRun(recs []trace.Record, keepSeq bool, drive func(fr *flight.Recorder) []*Loop) runFingerprint {
	fr := flight.New(flight.Options{SampleEvery: 1, PerShardEvents: 1 << 20})
	fp := runFingerprint{events: make(map[routing.Prefix][]flight.Event)}
	for _, l := range drive(fr) {
		key := fmt.Sprintf("%v %v..%v", l.Prefix, l.Start, l.End)
		for _, s := range l.Streams {
			key += fmt.Sprintf(" (%d,%d)", s.ID, s.Replicas[0].Index)
		}
		fp.loops = append(fp.loops, key)
		if fp.events[l.Prefix] == nil {
			evs := fr.Seal("t", l.Prefix, 0, recs[len(recs)-1].Time, 0).Events
			if !keepSeq {
				for i := range evs {
					evs[i].Seq = 0
				}
			}
			fp.events[l.Prefix] = evs
		}
	}
	return fp
}

// TestDetectorDeterminism: same input, same stream IDs, loop order and
// flight-event sequence, whichever constructor built the engine. Every
// variant runs three times inside the test, because an order that
// leaks from map iteration needs more than one run to show.
func TestDetectorDeterminism(t *testing.T) {
	recs := randomTrace(1234, 15*time.Second, 1000, 5)
	cfg := DefaultConfig()
	governed := cfg
	governed.MaxActiveStreams = 64

	viaNew := func(opts ...Option) func(*flight.Recorder) []*Loop {
		return func(fr *flight.Recorder) []*Loop {
			e, err := New(cfg, append(opts, WithFlight(fr))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				e.Observe(r)
			}
			return e.Finish().Loops
		}
	}
	emitting := func(cfg Config) func(*flight.Recorder) []*Loop {
		return func(fr *flight.Recorder) []*Loop {
			var loops []*Loop
			sd := NewStreamDetector(cfg, func(l *Loop) { loops = append(loops, l) })
			sd.SetFlight(fr.Shard(0))
			for _, r := range recs {
				sd.Observe(r)
			}
			sd.FinishStats()
			return loops
		}
	}
	variants := []struct {
		name    string
		keepSeq bool
		drive   func(*flight.Recorder) []*Loop
	}{
		{"NewDetector", true, func(fr *flight.Recorder) []*Loop {
			d := NewDetector(cfg)
			d.SetFlight(fr.Shard(0))
			for _, r := range recs {
				d.Observe(r)
			}
			return d.Finish().Loops
		}},
		{"NewStreamDetector", true, emitting(cfg)},
		{"NewStreamDetector/governed", true, emitting(governed)},
		{"NewSession", true, func(fr *flight.Recorder) []*Loop {
			var loops []*Loop
			s, err := NewSession(cfg, func(e SessionEvent) { loops = append(loops, e.Loop) })
			if err != nil {
				t.Fatal(err)
			}
			s.SetFlight(fr.Shard(0))
			for _, r := range recs {
				s.Observe(r)
			}
			s.Complete()
			return loops
		}},
		{"New/workers=1", true, viaNew(WithWorkers(1))},
		{"New/workers=3", false, viaNew(WithWorkers(3))},
		{"New/streaming", true, viaNew(WithStreaming(nil))},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want := fingerprintRun(recs, v.keepSeq, v.drive)
			if len(want.loops) == 0 {
				t.Fatal("no loops; test is vacuous")
			}
			for run := 2; run <= 3; run++ {
				got := fingerprintRun(recs, v.keepSeq, v.drive)
				if !reflect.DeepEqual(got.loops, want.loops) {
					t.Fatalf("run %d: loops, stream IDs or first indices differ from run 1:\n%v\n%v", run, got.loops, want.loops)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Fatalf("run %d: flight-event sequence differs from run 1", run)
				}
			}
		})
	}
}

// TestScriptedLoopsAreFound: with clearly separated scripted loops,
// the detector must find a loop for every script entry that had
// traffic.
func TestScriptedLoopsAreFound(t *testing.T) {
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	cfg := traffic.SynthConfig{
		Duration:         60 * time.Second,
		PacketsPerSecond: 1500,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3, HopsMax: 8,
		Loops: []traffic.LoopSpec{
			{Prefix: dests[0], Start: 5 * time.Second, Duration: time.Second, TTLDelta: 2, Revolution: 3 * time.Millisecond},
			{Prefix: dests[0], Start: 40 * time.Second, Duration: time.Second, TTLDelta: 2, Revolution: 3 * time.Millisecond},
			{Prefix: dests[1], Start: 20 * time.Second, Duration: 2 * time.Second, TTLDelta: 4, Revolution: 6 * time.Millisecond},
		},
	}
	recs := traffic.Synthesize(cfg, stats.NewRNG(55))
	res := DetectRecords(recs, DefaultConfig())
	if len(res.Loops) != 3 {
		for _, l := range res.Loops {
			t.Logf("loop: %v %v..%v", l.Prefix, l.Start, l.End)
		}
		t.Fatalf("loops = %d, want 3", len(res.Loops))
	}
	// The delta-4 loop's streams must carry delta 4.
	for _, l := range res.Loops {
		if l.Prefix == dests[1] {
			for _, s := range l.Streams {
				if s.TTLDelta() != 4 {
					t.Errorf("stream delta = %d, want 4", s.TTLDelta())
				}
			}
		}
	}
}

// TestDetectSourceMatchesDetectRecords exercises the Source-based
// entry point.
func TestDetectSourceMatchesDetectRecords(t *testing.T) {
	recs := randomTrace(77, 5*time.Second, 400, 2)
	a := DetectRecords(recs, DefaultConfig())
	src := trace.NewSliceSource(trace.Meta{Link: "mem"}, recs)
	b, err := DetectSource(src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Streams) != len(b.Streams) || len(a.Loops) != len(b.Loops) {
		t.Errorf("source path differs: %d/%d streams", len(a.Streams), len(b.Streams))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MinReplicas: 1, MemberReplicas: 2, MinTTLDelta: 2, PrefixBits: 24},
		{MinReplicas: 3, MemberReplicas: 1, MinTTLDelta: 2, PrefixBits: 24},
		{MinReplicas: 3, MemberReplicas: 4, MinTTLDelta: 2, PrefixBits: 24},
		{MinReplicas: 3, MemberReplicas: 2, MinTTLDelta: 0, PrefixBits: 24},
		{MinReplicas: 3, MemberReplicas: 2, MinTTLDelta: 2, PrefixBits: 33},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted: %+v", i, cfg)
				}
			}()
			NewDetector(cfg)
		}()
	}
}

// TestObserveAllocationBudget locks in the hot-path allocation count
// of the one Observe, uncapped (offline use) and under the daemon's
// governor cap. A never-replicated record allocates nothing once the
// first-observation table is warm; until then (the first MaxReplicaGap
// of trace clock, while nothing has expired yet) its generations grow.
// Map and window growth amortise to next to nothing. Mallocs is read before
// and after whole passes because testing.AllocsPerRun rounds to a whole
// number, and the budgets are fractions. If this regresses the
// multi-hour-trace use case quietly gets slower.
func TestObserveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	recs := randomTrace(99, 30*time.Second, 2000, 0)
	if len(recs) < 10000 {
		t.Fatal("trace too small")
	}
	for _, maxStreams := range []int{0, 65536} {
		cfg := DefaultConfig()
		cfg.MaxActiveStreams = maxStreams
		d := NewDetector(cfg)
		warm := sort.Search(len(recs), func(i int) bool { return recs[i].Time > cfg.MaxReplicaGap })
		var start, warmed, end runtime.MemStats
		runtime.ReadMemStats(&start)
		for _, r := range recs[:warm] {
			d.Observe(r)
		}
		runtime.ReadMemStats(&warmed)
		for _, r := range recs[warm:] {
			d.Observe(r)
		}
		runtime.ReadMemStats(&end)
		overall := float64(end.Mallocs-start.Mallocs) / float64(len(recs))
		steady := float64(end.Mallocs-warmed.Mallocs) / float64(len(recs)-warm)
		t.Logf("MaxActiveStreams=%d: Observe: %.4f allocs/record (%.4f once warm), %.1f B/record (%.1f)",
			maxStreams, overall, steady, float64(end.TotalAlloc-start.TotalAlloc)/float64(len(recs)),
			float64(end.TotalAlloc-warmed.TotalAlloc)/float64(len(recs)-warm))
		// Measured 0.0020 and 0.0005 (DESIGN.md quotes the same pair).
		if overall > 0.1 || steady > 0.02 {
			t.Errorf("MaxActiveStreams=%d: Observe allocates %.4f objects/record, %.4f once warm; budget 0.1 and 0.02",
				maxStreams, overall, steady)
		}
	}
}

// loopStormTrace is shaped like the benchmark's loop storm: about two
// fifths of the records are replicas and about one in a hundred
// records starts a validated stream. Sixty one-second loops land on
// the 9th to 32nd most popular of 256 /24s, so a prefix carries several
// loops in turn and the rest of its time it sees background traffic.
func loopStormTrace(seed uint64) []trace.Record {
	const dur = 30 * time.Second
	rng := stats.NewRNG(seed)
	var dests []routing.Prefix
	for i := 0; i < 256; i++ {
		dests = append(dests, routing.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)))
	}
	cfg := traffic.SynthConfig{Duration: dur, PacketsPerSecond: 3000, Mix: traffic.DefaultMix(),
		DestPrefixes: dests, HopsMin: 3, HopsMax: 9}
	for i := 0; i < 60; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[8+rng.Intn(24)],
			Start:      time.Duration(rng.Int63n(int64(dur - 5*time.Second))),
			Duration:   time.Second,
			TTLDelta:   2 + rng.Intn(3),
			Revolution: time.Duration(300+rng.Intn(500)) * time.Microsecond,
		})
	}
	return traffic.Synthesize(cfg, rng)
}

// TestLoopStormAllocationBudget holds the second and later sightings
// to the budget of the first: once the free lists and slabs are warm
// (here, after the first half of the trace), the batch Detector makes
// at most 0.02 allocations per record on a loop storm. The shape is
// checked too, so that the budget keeps meaning a storm. A builder and
// prefix state per use, and a stream's replicas grown by append, read
// 0.123 here; measured now: 0.0075.
func TestLoopStormAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	recs := loopStormTrace(21)
	cfg := DefaultConfig()
	cfg.MergeWindow = 2 * time.Second
	d := NewDetector(cfg)
	warm := len(recs) / 2
	var warmed, end runtime.MemStats
	for _, r := range recs[:warm] {
		d.Observe(r)
	}
	runtime.ReadMemStats(&warmed)
	for _, r := range recs[warm:] {
		d.Observe(r)
	}
	runtime.ReadMemStats(&end)
	res := d.Finish()
	looped := float64(res.LoopedPackets) / float64(len(recs))
	streams := float64(len(res.Streams)) / float64(len(recs))
	steady := float64(end.Mallocs-warmed.Mallocs) / float64(len(recs)-warm)
	t.Logf("%d records, %.3f looped, %.4f streams per record: %.4f allocs/record once warm, %.1f B/record",
		len(recs), looped, streams, steady, float64(end.TotalAlloc-warmed.TotalAlloc)/float64(len(recs)-warm))
	if looped < 0.3 || looped > 0.5 || streams < 0.005 || streams > 0.02 {
		t.Fatalf("trace is not storm-shaped: %.3f looped, %.4f streams per record", looped, streams)
	}
	if steady > 0.02 {
		t.Errorf("Observe allocates %.4f objects/record on a loop storm once warm; budget 0.02", steady)
	}
}
