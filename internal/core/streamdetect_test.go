package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// collectStreaming runs the streaming detector over recs and returns
// its loops plus stats.
func collectStreaming(recs []trace.Record, cfg Config) ([]*Loop, StreamStats) {
	var loops []*Loop
	sd := NewStreamDetector(cfg, func(l *Loop) { loops = append(loops, l) })
	for _, r := range recs {
		sd.Observe(r)
	}
	stats := sd.FinishStats()
	return loops, stats
}

// loopKey compares loops structurally.
type loopKey struct {
	prefix     string
	start, end time.Duration
	streams    int
	replicas   int
}

func keysOf(loops []*Loop) []loopKey {
	out := make([]loopKey, 0, len(loops))
	for _, l := range loops {
		out = append(out, loopKey{
			prefix: l.Prefix.String(), start: l.Start, end: l.End,
			streams: len(l.Streams), replicas: l.Replicas(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].prefix != out[j].prefix {
			return out[i].prefix < out[j].prefix
		}
		return out[i].start < out[j].start
	})
	return out
}

// TestStreamingMatchesBatchQuick: the streaming detector must produce
// exactly the batch detector's loops on random traces.
func TestStreamingMatchesBatchQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		recs := randomTrace(seed, 20*time.Second, 700, 5)
		batch := DetectRecords(recs, cfg)
		sloops, stats := collectStreaming(recs, cfg)

		if stats.TotalPackets != batch.TotalPackets ||
			stats.LoopedPackets != batch.LoopedPackets ||
			stats.Streams != len(batch.Streams) ||
			stats.PairsDiscarded != batch.PairsDiscarded ||
			stats.SubnetInvalidated != batch.SubnetInvalidated {
			t.Logf("seed %d stats: stream=%+v batch={pkts %d looped %d streams %d pairs %d inval %d}",
				seed, stats, batch.TotalPackets, batch.LoopedPackets,
				len(batch.Streams), batch.PairsDiscarded, batch.SubnetInvalidated)
			return false
		}
		bk, sk := keysOf(batch.Loops), keysOf(sloops)
		if len(bk) != len(sk) {
			t.Logf("seed %d: batch %d loops, streaming %d", seed, len(bk), len(sk))
			return false
		}
		for i := range bk {
			if bk[i] != sk[i] {
				t.Logf("seed %d: loop %d differs: %+v vs %+v", seed, i, bk[i], sk[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestStreamingMatchesBatchWithWideGaps exercises the merge-window
// machinery: streams separated by tens of seconds.
func TestStreamingMatchesBatchWithWideGaps(t *testing.T) {
	var recs []trace.Record
	a := mkPkt("192.0.2.1", "203.0.113.5", 31, 64, 8)
	b := mkPkt("192.0.2.1", "203.0.113.5", 32, 64, 9)
	c := mkPkt("192.0.2.1", "203.0.113.5", 33, 64, 10)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, a, 6, 2)...)
	recs = append(recs, replicaRun(t, 30*time.Second, 10*time.Millisecond, b, 6, 2)...)
	recs = append(recs, replicaRun(t, 2*time.Minute, 10*time.Millisecond, c, 6, 2)...)
	// Background keeps the clock advancing so emission deadlines fire
	// before Finish.
	for i := 0; i < 300; i++ {
		recs = append(recs, rec(t, time.Duration(i)*time.Second,
			mkPkt("192.0.2.7", "198.51.100.9", uint16(1000+i), 60, uint64(5000+i))))
	}
	sortRecords(recs)

	batch := DetectRecords(recs, DefaultConfig())
	sloops, _ := collectStreaming(recs, DefaultConfig())
	bk, sk := keysOf(batch.Loops), keysOf(sloops)
	if len(bk) != len(sk) {
		t.Fatalf("batch %d loops, streaming %d", len(bk), len(sk))
	}
	for i := range bk {
		if bk[i] != sk[i] {
			t.Errorf("loop %d: %+v vs %+v", i, bk[i], sk[i])
		}
	}
	// Sanity: streams 1+2 merged (29s apart), stream 3 separate.
	if len(bk) != 2 {
		t.Errorf("loops = %d, want 2", len(bk))
	}
}

// TestStreamingEmitsBeforeFinish: a loop followed by minutes of other
// traffic must be emitted long before Finish.
func TestStreamingEmitsBeforeFinish(t *testing.T) {
	var recs []trace.Record
	a := mkPkt("192.0.2.1", "203.0.113.5", 41, 64, 11)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, a, 6, 2)...)
	for i := 0; i < 600; i++ {
		recs = append(recs, rec(t, time.Duration(i)*500*time.Millisecond,
			mkPkt("192.0.2.7", "198.51.100.9", uint16(1000+i), 60, uint64(9000+i))))
	}
	sortRecords(recs)

	emittedAt := -1
	var loops []*Loop
	sd := NewStreamDetector(DefaultConfig(), func(l *Loop) { loops = append(loops, l) })
	for i, r := range recs {
		sd.Observe(r)
		if len(loops) > 0 && emittedAt < 0 {
			emittedAt = i
		}
	}
	sd.Finish()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if emittedAt < 0 || emittedAt >= len(recs)-1 {
		t.Errorf("loop not emitted before the end of the trace (at %d of %d)", emittedAt, len(recs))
	}
}

// TestStreamingBoundedMemory: peak retained entries must track the
// undecided window, not the trace length.
func TestStreamingBoundedMemory(t *testing.T) {
	// A long quiet trace towards one prefix: hours of records, no
	// loops.
	var loops []*Loop
	sd := NewStreamDetector(DefaultConfig(), func(l *Loop) { loops = append(loops, l) })
	const n = 200000
	for i := 0; i < n; i++ {
		p := mkPkt("192.0.2.1", "198.51.100.9", uint16(i%60000+1), 60, uint64(i))
		sd.Observe(rec(t, time.Duration(i)*50*time.Millisecond, p))
	}
	stats := sd.FinishStats()
	if stats.TotalPackets != n {
		t.Fatalf("packets = %d", stats.TotalPackets)
	}
	if len(loops) != 0 {
		t.Fatalf("phantom loops: %d", len(loops))
	}
	// 50 ms spacing, decisions bounded by MaxReplicaGap (2 s): the
	// retained tail should be on the order of tens-to-hundreds of
	// entries, never the full 200k.
	if stats.PeakPrefixEntries > 2000 {
		t.Errorf("peak retained entries = %d; memory is not bounded", stats.PeakPrefixEntries)
	}
}

// TestStreamingFinishAllocatesPerPrefix: ending a run on its counters —
// FinishStats, and Session.Complete and Drain on top of it — must cost
// memory in proportion to the prefixes still holding state, never to
// the records observed; a per-record index (4 B/record for
// Result.Membership) would be the largest allocation of a multi-hour
// run, made at its very end.
func TestStreamingFinishAllocatesPerPrefix(t *testing.T) {
	const n, prefixes = 200_000, 64
	finishers := map[string]func() (observe func(trace.Record), finish func() StreamStats){
		"FinishStats": func() (func(trace.Record), func() StreamStats) {
			sd := NewStreamDetector(DefaultConfig(), nil)
			return sd.Observe, sd.FinishStats
		},
		"Session.Complete": func() (func(trace.Record), func() StreamStats) {
			s, _ := NewSession(DefaultConfig(), nil)
			return s.Observe, s.Complete
		},
		"Session.Drain": func() (func(trace.Record), func() StreamStats) {
			s, _ := NewSession(DefaultConfig(), nil)
			return s.Observe, s.Drain
		},
	}
	for name, mk := range finishers {
		observe, finish := mk()
		for i := 0; i < n; i++ {
			p := mkPkt("192.0.2.1", fmt.Sprintf("198.18.%d.9", i%prefixes), uint16(i%60000+1), 60, uint64(i))
			observe(rec(t, time.Duration(i)*time.Millisecond, p))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats := finish()
		runtime.ReadMemStats(&after)
		if stats.TotalPackets != n {
			t.Fatalf("%s: packets = %d", name, stats.TotalPackets)
		}
		// 1 KiB per prefix is generous for the sort of the busy prefixes;
		// the membership index alone would be 800 KB.
		if got := after.TotalAlloc - before.TotalAlloc; got > prefixes*1024 {
			t.Errorf("%s allocated %d bytes after %d singleton records over %d prefixes", name, got, n, prefixes)
		}
	}
}

// TestStreamingScale pushes a multi-million-record synthesized trace
// through the streaming detector without ever materialising it,
// asserting bounded retained state — the "apply it to a real
// multi-hour capture" scalability claim.
func TestStreamingScale(t *testing.T) {
	if testing.Short() {
		t.Skip("several million records")
	}
	var dests []routing.Prefix
	for i := 0; i < 256; i++ {
		dests = append(dests, routing.NewPrefix(
			[4]byte{198, byte(20 + i/256), byte(i), 0}, 24))
	}
	rng := stats.NewRNG(31)
	cfg := traffic.SynthConfig{
		Duration: 10 * time.Minute, PacketsPerSecond: 8000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 10,
	}
	for i := 0; i < 40; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      time.Duration(rng.Int63n(int64(9 * time.Minute))),
			Duration:   time.Duration(200+rng.Intn(4000)) * time.Millisecond,
			TTLDelta:   2 + rng.Intn(4),
			Revolution: time.Duration(2+rng.Intn(5)) * time.Millisecond,
		})
	}

	loops := 0
	sd := NewStreamDetector(DefaultConfig(), func(*Loop) { loops++ })
	n := 0
	traffic.SynthesizeStream(cfg, rng, func(r trace.Record) {
		n++
		sd.Observe(r)
	})
	stats := sd.FinishStats()
	if n < 4_000_000 {
		t.Fatalf("only %d records", n)
	}
	if stats.TotalPackets != n {
		t.Fatalf("observed %d of %d", stats.TotalPackets, n)
	}
	if loops < 20 {
		t.Errorf("loops = %d, expected most of the 40 scripted events", loops)
	}
	// Retained state must track the undecided window (seconds of
	// traffic for one prefix), not the 4M+ trace.
	if stats.PeakPrefixEntries > 200_000 {
		t.Errorf("peak retained entries %d — memory not bounded", stats.PeakPrefixEntries)
	}
	t.Logf("records=%d loops=%d streams=%d peakEntries=%d",
		n, loops, stats.Streams, stats.PeakPrefixEntries)
}

// deepCopyLoop copies l down to its replicas.
func deepCopyLoop(l *Loop) *Loop {
	c := *l
	c.Streams = make([]*ReplicaStream, len(l.Streams))
	for i, s := range l.Streams {
		sc := *s
		sc.Replicas = slices.Clone(s.Replicas)
		c.Streams[i] = &sc
	}
	return &c
}

// TestEmittedLoopsOutlivePooledState: builders, prefix states and the
// arrays a loop's streams grow in are reused, so what goes out must be
// copied out of them. Loops a streaming detector emitted, deep-copied
// at emission, must still equal their copies after the rest of a storm
// has gone through the pools; and appending to one stream's replicas,
// or to one loop's streams, in a Result must change no other.
func TestEmittedLoopsOutlivePooledState(t *testing.T) {
	recs := loopStormTrace(5)
	cfg := DefaultConfig()
	cfg.MergeWindow = 2 * time.Second
	var emitted, copies []*Loop
	d := NewStreamDetector(cfg, func(l *Loop) {
		emitted = append(emitted, l)
		copies = append(copies, deepCopyLoop(l))
	})
	early := 0
	for i, r := range recs {
		d.Observe(r)
		if i == len(recs)/2 {
			early = len(emitted)
		}
	}
	d.FinishStats()
	if early < 10 {
		t.Fatalf("%d loops emitted in the first half of the trace; the test needs the pools to turn over after emissions", early)
	}
	for i, l := range emitted {
		if !reflect.DeepEqual(l, copies[i]) {
			t.Fatalf("loop %d of %d (%v) changed after it was emitted", i, len(emitted), l.Prefix)
		}
	}

	res := DetectRecords(recs, cfg)
	copies = copies[:0]
	for _, l := range res.Loops {
		copies = append(copies, deepCopyLoop(l))
	}
	for _, s := range res.Streams {
		_ = append(s.Replicas, Replica{TTL: 1})
	}
	for _, l := range res.Loops {
		_ = append(l.Streams, nil)
	}
	for i, l := range res.Loops {
		if !reflect.DeepEqual(l, copies[i]) {
			t.Fatalf("appending to a Result's slices changed loop %d (%v)", i, l.Prefix)
		}
	}
}
