package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// oracleMergeWindow keeps the scripted merge-window cases short.
const oracleMergeWindow = 3 * time.Second

// oracleTrace scripts, on six private prefixes, one case per decision
// the three steps make, with seed-drawn sizes, spacings and TTL deltas,
// and buries them in randomTrace's background and loops:
//
//	10.1.1.0/24  two streams whose gap is 1 ns short of MergeWindow, nothing in it: one loop
//	10.1.2.0/24  the same two streams exactly MergeWindow apart: two loops
//	10.1.3.0/24  two streams well inside MergeWindow with a clean packet between: two loops
//	10.1.4.0/24  a stream with a non-looping packet inside its window: subnet-invalidated
//	10.1.5.0/24  a stream whose packet reappears at its first TTL: TTL-rise restart, two streams
//	10.1.6.0/24  a stream interleaved with delta-1 duplicates, and a two-replica pair
func oracleTrace(t *testing.T, seed uint64) []trace.Record {
	t.Helper()
	rng := stats.NewRNG(seed)
	var recs []trace.Record
	id := uint16(0)
	// run appends a replica stream towards dst and returns the time of
	// its last replica.
	run := func(dst string, start time.Duration) time.Duration {
		id++
		n, delta := 4+rng.Intn(5), 2+rng.Intn(4)
		gap := time.Duration(1+rng.Intn(20)) * time.Millisecond
		rs := replicaRun(t, start, gap, mkPkt("192.0.2.1", dst, id, 250, uint64(seed)<<16|uint64(id)), n, delta)
		recs = append(recs, rs...)
		return rs[len(rs)-1].Time
	}
	single := func(dst string, at time.Duration) {
		id++
		recs = append(recs, rec(t, at, mkPkt("192.0.2.2", dst, id, 60, uint64(seed)<<16|uint64(id))))
	}
	t0 := time.Duration(500+rng.Intn(500)) * time.Millisecond

	end := run("10.1.1.5", t0)
	run("10.1.1.6", end+oracleMergeWindow-1)

	end = run("10.1.2.5", t0)
	run("10.1.2.6", end+oracleMergeWindow)

	end = run("10.1.3.5", t0)
	single("10.1.3.99", end+oracleMergeWindow/3)
	run("10.1.3.6", end+oracleMergeWindow/2)

	end = run("10.1.4.5", t0)
	single("10.1.4.99", t0+(end-t0)/2)

	// TTL rise: the same packet (same id, same seed) starts over at its
	// first TTL while its stream is still open.
	id++
	again := mkPkt("192.0.2.1", "10.1.5.5", id, 250, uint64(seed)<<16|uint64(id))
	first := replicaRun(t, t0, 5*time.Millisecond, again, 4+rng.Intn(3), 3)
	recs = append(recs, first...)
	recs = append(recs, replicaRun(t, first[len(first)-1].Time+5*time.Millisecond, 5*time.Millisecond, again, 4, 3)...)

	// Delta-1 duplicates between genuine replicas: TTLs 200, 199, 197,
	// 196, 194, ... — every second observation is a link-layer
	// duplicate and must neither extend the stream nor refute it.
	id++
	dup := mkPkt("192.0.2.1", "10.1.6.5", id, 200, uint64(seed)<<16|uint64(id))
	for i, ttl := 0, 200; i < 8+rng.Intn(4); i++ {
		p := dup
		p.IP.TTL = uint8(ttl)
		recs = append(recs, rec(t, t0+time.Duration(i)*4*time.Millisecond, p))
		ttl -= 1 + i%2
	}
	id++
	recs = append(recs, replicaRun(t, t0+time.Second, 3*time.Millisecond,
		mkPkt("192.0.2.1", "10.1.6.7", id, 64, uint64(seed)<<16|uint64(id)), 2, 2)...)

	recs = append(recs, randomTrace(seed, 8*time.Second, 300, 2)...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return recs
}

// TestOracleIndependence: the NaiveDetector — its own flat-scan step 1
// and its own whole-trace steps 2 and 3 — the Detector collecting its
// loops, and the Detector emitting them through a callback must agree
// exactly, on traces built to reach every branch of the three steps.
func TestOracleIndependence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeWindow = oracleMergeWindow
	pfx := func(i int) routing.Prefix {
		return routing.MustParsePrefix(fmt.Sprintf("10.1.%d.0/24", i))
	}
	for seed := uint64(1); seed <= 24; seed++ {
		recs := oracleTrace(t, seed)
		label := fmt.Sprintf("seed %d", seed)

		want := NaiveDetectRecords(recs, cfg)
		got := DetectRecords(recs, cfg)
		requireSameResult(t, label+": collect-all vs naive", got, want)

		var emitted []*Loop
		sd := NewStreamDetector(cfg, func(l *Loop) { emitted = append(emitted, l) })
		for _, r := range recs {
			sd.Observe(r)
		}
		st := sd.FinishStats()
		if st.TotalPackets != want.TotalPackets || st.LoopedPackets != want.LoopedPackets ||
			st.Streams != len(want.Streams) || st.PairsDiscarded != want.PairsDiscarded ||
			st.SubnetInvalidated != want.SubnetInvalidated {
			t.Fatalf("%s: emit-mode counters %+v differ from naive", label, st)
		}
		sort.Slice(emitted, func(i, j int) bool { return loopLess(emitted[i], emitted[j]) })
		if len(emitted) != len(want.Loops) {
			t.Fatalf("%s: emitted %d loops, naive %d", label, len(emitted), len(want.Loops))
		}
		for i, l := range emitted {
			w := want.Loops[i]
			if l.Prefix != w.Prefix || l.Start != w.Start || l.End != w.End || len(l.Streams) != len(w.Streams) {
				t.Fatalf("%s: emitted loop %d = %v %v..%v (%d streams), naive %v %v..%v (%d)", label, i,
					l.Prefix, l.Start, l.End, len(l.Streams), w.Prefix, w.Start, w.End, len(w.Streams))
			}
			for j, s := range l.Streams {
				if !reflect.DeepEqual(s.Replicas, w.Streams[j].Replicas) {
					t.Fatalf("%s: emitted loop %d stream %d replicas differ from naive", label, i, j)
				}
			}
		}

		// The script did what it says (checked on the oracle's answer).
		loops, streams := make(map[routing.Prefix]int), make(map[routing.Prefix]int)
		for _, l := range want.Loops {
			loops[l.Prefix]++
			streams[l.Prefix] += len(l.Streams)
		}
		for i, c := range []struct{ loops, streams int }{{1, 2}, {2, 2}, {2, 2}, {0, 0}, {1, 2}, {1, 1}} {
			if p := pfx(i + 1); loops[p] != c.loops || streams[p] != c.streams {
				t.Errorf("%s: %v has %d loops of %d streams, script expects %d of %d",
					label, p, loops[p], streams[p], c.loops, c.streams)
			}
		}
		if want.SubnetInvalidated < 1 || want.PairsDiscarded < 1 {
			t.Errorf("%s: %d subnet-invalidated, %d pairs; script expects at least one each",
				label, want.SubnetInvalidated, want.PairsDiscarded)
		}
	}
}
