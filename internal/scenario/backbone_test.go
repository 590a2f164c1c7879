package scenario

import (
	"fmt"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// smallSpec is a fast scenario shared by the integration tests: two
// delta-2 pockets and one delta-3 pocket, one IGP failure each.
func smallSpec() Spec {
	return Spec{
		Name:             "test-bb",
		Seed:             11,
		Duration:         90 * time.Second,
		PacketsPerSecond: 400,
		StablePrefixes:   16,
		Pockets: []PocketSpec{
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
			{Delta: 3, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
		},
	}
}

func TestBackboneEndToEnd(t *testing.T) {
	b := Build(smallSpec())
	b.Run()

	recs := b.Records()
	if len(recs) < 10000 {
		t.Fatalf("trace too small: %d records", len(recs))
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(b.Net.GroundTruth) == 0 {
		t.Fatalf("simulation produced no loops")
	}

	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Streams) == 0 {
		t.Fatalf("detector found no replica streams (ground truth has %d events)",
			len(b.Net.GroundTruth))
	}
	if len(res.Loops) == 0 {
		t.Fatalf("detector merged zero loops from %d streams", len(res.Streams))
	}

	// Detected TTL deltas must be loop sizes the scenario can produce.
	for _, s := range res.Streams {
		d := s.TTLDelta()
		if d != 2 && d != 3 {
			t.Errorf("stream %d: TTL delta %d, want 2 or 3", s.ID, d)
		}
	}

	// Every detected loop must correspond to a ground-truth window
	// for the same /24 overlapping in time (precision check).
	windows := b.Net.GroundTruthWindows(time.Minute)
	for _, l := range res.Loops {
		if !overlapsGroundTruth(l, windows) {
			t.Errorf("detected loop %v [%v, %v] has no ground-truth counterpart",
				l.Prefix, l.Start, l.End)
		}
	}

	// Recall: most ground-truth windows involving the monitored
	// prefix space should be detected. (Loops that never cross the
	// monitored link are invisible by design, but pocket loops cross
	// it by construction.)
	detected := 0
	for _, w := range windows {
		if !pocketPrefix(w.Prefix) {
			continue
		}
		found := false
		for _, l := range res.Loops {
			if l.Prefix == w.Prefix && l.Start <= w.End && w.Start <= l.End+time.Second {
				found = true
				break
			}
		}
		if found {
			detected++
		}
	}
	pocketWindows := 0
	for _, w := range windows {
		if pocketPrefix(w.Prefix) {
			pocketWindows++
		}
	}
	if pocketWindows == 0 {
		t.Fatalf("no ground-truth windows in pocket space")
	}
	recall := float64(detected) / float64(pocketWindows)
	if recall < 0.5 {
		t.Errorf("recall = %.2f (%d/%d), want >= 0.5", recall, detected, pocketWindows)
	}
	t.Logf("records=%d streams=%d loops=%d gtWindows=%d recall=%.2f loopedPkts=%d",
		len(recs), len(res.Streams), len(res.Loops), pocketWindows, recall, res.LoopedPackets)
}

// pocketPrefix reports whether p lies in the pocket (class-C) space.
func pocketPrefix(p routing.Prefix) bool {
	return p.Addr[0] >= 192 && p.Addr[0] < 224
}

func overlapsGroundTruth(l *core.Loop, windows []netsim.LoopWindow) bool {
	for _, w := range windows {
		if w.Prefix == l.Prefix && l.Start <= w.End+time.Second && w.Start <= l.End+time.Second {
			return true
		}
	}
	return false
}

func TestBackboneDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulations")
	}
	spec := smallSpec()
	spec.Duration = 80 * time.Second
	// Include a BGP pocket: the mesh's map-keyed state is where
	// nondeterminism would creep in (timer draws must not depend on
	// map iteration order).
	spec.Pockets = append(spec.Pockets,
		PocketSpec{Delta: 2, Prefixes: 2, Failures: 1, RepairAfter: 30 * time.Second, BGPDriven: true})
	a := Build(spec)
	a.Run()
	b := Build(spec)
	b.Run()
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Time != rb[i].Time || string(ra[i].Data) != string(rb[i].Data) {
			t.Fatalf("same seed diverges at record %d", i)
		}
	}
}

// TestPersistentLoopClassification checks the future-work extension:
// a misconfigured (never-healing) loop spans the whole trace and is
// classified persistent, while convergence loops remain transient.
func TestPersistentLoopClassification(t *testing.T) {
	spec := smallSpec()
	spec.PersistentPrefixes = 1
	b := Build(spec)
	b.Run()
	recs := b.Records()

	res := core.DetectRecords(recs, core.DefaultConfig())
	var traceEnd time.Duration
	if n := len(recs); n > 0 {
		traceEnd = recs[n-1].Time
	}
	split := res.SplitPersistence(traceEnd, time.Minute, time.Minute)
	if len(split.Persistent) != 1 {
		for _, l := range res.Loops {
			t.Logf("loop %v: %v..%v (dur %v)", l.Prefix, l.Start, l.End, l.Duration())
		}
		t.Fatalf("persistent loops = %d, want 1", len(split.Persistent))
	}
	p := split.Persistent[0]
	if p.Prefix.Addr[0] != 203 {
		t.Errorf("persistent loop on %v, want the misconfigured 203.0.x block", p.Prefix)
	}
	// Its streams must show the two-router static loop.
	for _, s := range p.Streams {
		if s.TTLDelta() != 2 {
			t.Errorf("persistent stream delta = %d, want 2", s.TTLDelta())
		}
	}
	if len(split.Transient) == 0 {
		t.Error("transient loops disappeared")
	}
	// No traffic to the misconfigured prefix is ever delivered.
	for _, w := range b.Net.GroundTruthWindows(time.Minute) {
		if w.Prefix == p.Prefix && w.Duration() < traceEnd/2 {
			t.Errorf("ground-truth window for persistent prefix only %v", w.Duration())
		}
	}
}

// TestPocketDeltaGeometry: a pocket with ring length k must only ever
// produce monitored-link loops of TTL delta k.
func TestPocketDeltaGeometry(t *testing.T) {
	for _, delta := range []int{2, 4, 6} {
		delta := delta
		t.Run(fmt.Sprintf("delta%d", delta), func(t *testing.T) {
			spec := Spec{
				Name:             "geom",
				Seed:             5,
				Duration:         3 * time.Minute,
				PacketsPerSecond: 500,
				StablePrefixes:   8,
				Pockets: []PocketSpec{
					{Delta: delta, Prefixes: 4, Failures: 4, RepairAfter: 20 * time.Second},
				},
			}
			b := Build(spec)
			b.Run()
			res := core.DetectRecords(b.Records(), core.DefaultConfig())
			if len(res.Streams) == 0 {
				t.Skipf("seed produced no monitored-link loops for delta %d", delta)
			}
			for _, s := range res.Streams {
				if got := s.TTLDelta(); got != delta {
					t.Errorf("stream %d: delta %d, want %d (prefix %v)",
						s.ID, got, delta, s.Prefix)
				}
			}
			t.Logf("delta %d: %d streams, %d loops", delta, len(res.Streams), len(res.Loops))
		})
	}
}

// TestDetectorInvariantsAcrossSeeds runs the small scenario under many
// seeds and checks detector invariants that must hold regardless of
// which loops happened to cross the monitored link: every detected
// loop matches a ground-truth window, deltas come from the pocket
// geometry, and validated streams never overlap clean traffic.
func TestDetectorInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("ten simulations")
	}
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := smallSpec()
			spec.Seed = seed
			b := Build(spec)
			b.Run()
			recs := b.Records()
			res := core.DetectRecords(recs, core.DefaultConfig())
			windows := b.Net.GroundTruthWindows(time.Minute)
			for _, l := range res.Loops {
				if !overlapsGroundTruth(l, windows) {
					t.Errorf("loop %v [%v,%v] has no ground-truth counterpart",
						l.Prefix, l.Start, l.End)
				}
			}
			for _, s := range res.Streams {
				if d := s.TTLDelta(); d != 2 && d != 3 {
					t.Errorf("stream delta %d outside pocket geometry", d)
				}
			}
			t.Logf("seed %d: %d streams, %d loops, %d gt windows",
				seed, len(res.Streams), len(res.Loops), len(windows))
		})
	}
}
