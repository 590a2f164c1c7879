package agg

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/obs/flight"
	"loopscope/internal/scenario"
	"loopscope/internal/serve"
	"loopscope/internal/stats"
	"loopscope/pkg/loopscope"
)

// The fleet tier's end-to-end acceptance check, against netsim ground
// truth: three taps around one pocket's loop cycle each capture the
// same injected loop, each vantage's detector reports it
// independently, and the aggregator must collapse the three reports
// into exactly one FleetLoop carrying all three vantage attributions.
// Each consecutive pair of taps must see the same replica streams one
// TTL apart.
// Measured against the simulator's ground-truth loop windows, dedup
// precision and recall are both required to be 1.0, and a kill -9
// restart (journal replay, no Close) must reproduce the identical
// fleet loop set.
func TestClusterDedupPrecisionRecall(t *testing.T) {
	spec := scenario.Spec{
		Name:             "cluster",
		Seed:             7,
		Duration:         90 * time.Second,
		PacketsPerSecond: 400,
		StablePrefixes:   8,
		Pockets: []scenario.PocketSpec{
			// One Delta-3 pocket: a three-link cycle, so three taps
			// can each see every looping packet once per revolution.
			{Delta: 3, Prefixes: 1, Failures: 1, RepairAfter: 25 * time.Second},
		},
	}
	const vantages = 3
	cl := scenario.BuildCluster(spec, vantages)
	cl.Run()

	journal := filepath.Join(t.TempDir(), "fleet.jsonl")
	a := newTestAgg(t, Config{Journal: journal})

	// Run the single-vantage detector over each tap's capture and
	// feed every detected loop to the aggregator, exactly as a fleet
	// of loopscoped daemons would report it.
	reported := 0
	results := make([]*core.Result, len(cl.Vantages))
	for i, v := range cl.Vantages {
		res := core.DetectRecords(v.Tap.Records(), core.DefaultConfig())
		results[i] = res
		if len(res.Loops) == 0 {
			t.Fatalf("vantage %s (%s): detector found no loops", v.Name, v.Link.Name)
		}
		for _, l := range res.Loops {
			ev := loopscope.Event{
				ID:         flight.LoopID(v.Name, l.Prefix.String(), int64(l.Start)),
				Source:     v.Link.Name,
				Vantage:    v.Name,
				Prefix:     l.Prefix.String(),
				StartNs:    int64(l.Start),
				EndNs:      int64(l.End),
				DurationNs: int64(l.End - l.Start),
				Streams:    len(l.Streams),
				Replicas:   l.Replicas(),
				TTLDelta:   l.Streams[0].TTLDelta(),
				Idents:     serve.LoopIdents(l),
			}
			accepted, err := a.Ingest(Observation{Vantage: v.Name, Transport: transportPull, Event: ev})
			if err != nil || !accepted {
				t.Fatalf("Ingest(%s %s) = %v, %v", v.Name, ev.Prefix, accepted, err)
			}
			reported++
		}
	}
	if reported < vantages {
		t.Fatalf("only %d observations across %d vantages", reported, vantages)
	}

	// Exactly one fleet loop, attributed to every vantage.
	loops := a.FleetLoops()
	if len(loops) != 1 {
		t.Fatalf("fleet loops = %d from %d observations, want 1 (dedup failed): %+v",
			len(loops), reported, loops)
	}
	fl := loops[0]
	if len(fl.Vantages) != vantages {
		t.Errorf("fleet loop vantages = %v, want all %d", fl.Vantages, vantages)
	}
	if len(fl.Evidence) != reported {
		t.Errorf("fleet loop evidence = %d entries, want every observation (%d)", len(fl.Evidence), reported)
	}

	// Consecutive vantages sit one forwarding hop apart on the cycle:
	// their streams must pair on the packet identity, with equal TTL
	// deltas, and the pairs' modal TTL offset must recover the one-hop
	// separation — the correlation paperrepro's dual experiment prints.
	for i := 1; i < len(results); i++ {
		up, down := results[i-1], results[i]
		downstream := make(map[uint64]*core.ReplicaStream, len(down.Streams))
		for _, s := range down.Streams {
			downstream[s.Ident] = s
		}
		var offsets stats.IntHist
		for _, sa := range up.Streams {
			sb, ok := downstream[sa.Ident]
			if !ok {
				continue
			}
			if sa.TTLDelta() != sb.TTLDelta() {
				t.Errorf("vp%d/vp%d: pair deltas differ: %d vs %d", i-1, i, sa.TTLDelta(), sb.TTLDelta())
			}
			// The downstream tap may have missed the first revolution.
			d := sa.TTLDelta()
			offsets.Add(((int(sa.Replicas[0].TTL)-int(sb.Replicas[0].TTL))%d + d) % d)
		}
		if offsets.N == 0 {
			t.Fatalf("vp%d/vp%d: no stream pairs matched (%d and %d streams)", i-1, i, len(up.Streams), len(down.Streams))
		}
		if hop := offsets.Mode(); hop != 1 {
			t.Errorf("vp%d/vp%d: inferred tap separation = %d hops, want 1", i-1, i, hop)
		}
		t.Logf("vp%d/vp%d: %d pairs of %d and %d streams", i-1, i, offsets.N, len(up.Streams), len(down.Streams))
	}

	// Precision and recall against the simulator's ground truth must
	// both be 1.0: every fleet loop matches a ground-truth window for
	// the same /24 and overlapping time, and every ground-truth
	// window is covered by a fleet loop.
	windows := cl.Net.GroundTruthWindows(time.Minute)
	if len(windows) == 0 {
		t.Fatal("simulation produced no ground-truth loops")
	}
	const slack = int64(time.Second)
	matchesWindow := func(fl fleetLoop, w netsim.LoopWindow) bool {
		return fl.Prefix == w.Prefix.String() &&
			fl.StartNs <= int64(w.End)+slack && int64(w.Start) <= fl.EndNs+slack
	}
	for _, fl := range loops {
		found := false
		for _, w := range windows {
			if matchesWindow(fl, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fleet loop %s %s [%d, %d] has no ground-truth counterpart (precision < 1)",
				fl.ID, fl.Prefix, fl.StartNs, fl.EndNs)
		}
	}
	for _, w := range windows {
		found := false
		for _, fl := range loops {
			if matchesWindow(fl, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ground-truth window %s [%v, %v] not covered by any fleet loop (recall < 1)",
				w.Prefix, w.Start, w.End)
		}
	}

	// kill -9: no Close, no final sync — a fresh aggregator replaying
	// the same journal must reproduce the identical fleet loop set.
	replay := newTestAgg(t, Config{Journal: journal})
	if !reflect.DeepEqual(replay.FleetLoops(), loops) {
		t.Errorf("journal replay diverged:\n got %+v\nwant %+v", replay.FleetLoops(), loops)
	}
}
