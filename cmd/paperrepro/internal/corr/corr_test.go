package corr_test

import (
	"strings"
	"testing"
	"time"

	"loopscope/cmd/paperrepro/internal/corr"
	"loopscope/internal/core"
	"loopscope/internal/events"
	"loopscope/internal/routing"
	"loopscope/internal/scenario"
)

func TestAttributeEndToEnd(t *testing.T) {
	spec := scenario.Spec{
		Name:             "corr-bb",
		Seed:             11,
		Duration:         90 * time.Second,
		PacketsPerSecond: 400,
		StablePrefixes:   16,
		Pockets: []scenario.PocketSpec{
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
			{Delta: 3, Prefixes: 3, Failures: 1, RepairAfter: 25 * time.Second},
		},
	}
	bb := scenario.Build(spec)
	bb.Run()
	recs := bb.Records()
	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Fatal("no loops detected")
	}
	j := bb.Net.Journal
	if j.Len() == 0 {
		t.Fatal("journal empty")
	}
	// The journal must contain the root causes and reactions.
	counts := j.CountByKind()
	if counts[events.LinkFailed] != 3 || counts[events.LinkRepaired] != 3 {
		t.Errorf("root causes = %d failed / %d repaired, want 3/3",
			counts[events.LinkFailed], counts[events.LinkRepaired])
	}
	if counts[events.SPFComputed] == 0 || counts[events.FIBUpdated] == 0 ||
		counts[events.LSAOriginated] == 0 {
		t.Errorf("missing protocol reactions: %v", counts)
	}

	rep := corr.Attribute(res.Loops, j, 30*time.Second)
	if rep.Unattributed > 0 {
		t.Errorf("%d of %d loops unattributed", rep.Unattributed, len(res.Loops))
	}
	attributed := 0
	for _, a := range rep.Attributions {
		if a.Cause == nil {
			continue
		}
		attributed++
		if !a.Cause.Kind.RootCause() {
			t.Errorf("cause kind %v is not a root cause", a.Cause.Kind)
		}
		if a.OnsetLatency < 0 || a.OnsetLatency > 30*time.Second {
			t.Errorf("onset latency %v out of window", a.OnsetLatency)
		}
		if a.Healer == nil {
			t.Errorf("loop %v has no healer FIB update", a.Loop.Prefix)
		} else if a.HealLatency < -15*time.Second || a.HealLatency > 30*time.Second {
			t.Errorf("heal latency %v implausible", a.HealLatency)
		}
	}
	if attributed == 0 {
		t.Fatal("nothing attributed")
	}
	out := corr.Render(rep)
	for _, w := range []string{"link-", "onset latency", "healed by FIB update"} {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q:\n%s", w, out)
		}
	}
}

func TestAttributeBGPWithdrawal(t *testing.T) {
	spec := scenario.Spec{
		Name:             "corr-bgp",
		Seed:             7,
		Duration:         150 * time.Second,
		PacketsPerSecond: 500,
		StablePrefixes:   8,
		Pockets: []scenario.PocketSpec{
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 50 * time.Second, BGPDriven: true},
		},
	}
	bb := scenario.Build(spec)
	bb.Run()
	res := core.DetectRecords(bb.Records(), core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Skip("seed produced no monitored-link loops for the BGP pocket")
	}
	rep := corr.Attribute(res.Loops, bb.Net.Journal, 2*time.Minute)
	// BGP pocket loops must be attributed to prefix withdrawals or
	// re-advertisements (prefix-matching beats time-nearest link
	// noise).
	got := rep.ByCause[events.PrefixWithdrawn] + rep.ByCause[events.PrefixAdvertised]
	if got == 0 {
		t.Errorf("no loops attributed to BGP events: %v (unattributed %d)",
			rep.ByCause, rep.Unattributed)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *events.Journal
	j.Append(events.Event{Kind: events.LinkFailed})
	if j.Len() != 0 || j.All() != nil || len(j.RootCauses()) != 0 {
		t.Error("nil journal must drop everything")
	}
	rep := corr.Attribute(nil, j, time.Minute)
	if len(rep.Attributions) != 0 {
		t.Error("no loops should mean no attributions")
	}
	_ = routing.Prefix{}
}

func TestCausePrefixPreference(t *testing.T) {
	// Two root causes in the window: a recent link failure (no
	// prefixes) and an older withdrawal naming the loop's prefix. The
	// prefix match must win despite being older.
	j := events.NewJournal()
	pfx := routing.MustParsePrefix("198.51.100.0/24")
	j.Append(events.Event{At: 10 * time.Second, Kind: events.PrefixWithdrawn,
		Node: "e1", Prefixes: []routing.Prefix{pfx}})
	j.Append(events.Event{At: 18 * time.Second, Kind: events.LinkFailed, Subject: "x->y"})
	loops := []*core.Loop{{
		Prefix: pfx,
		Start:  20 * time.Second, End: 22 * time.Second,
	}}
	rep := corr.Attribute(loops, j, 30*time.Second)
	if len(rep.Attributions) != 1 || rep.Attributions[0].Cause == nil {
		t.Fatalf("attribution missing: %+v", rep.Attributions)
	}
	if rep.Attributions[0].Cause.Kind != events.PrefixWithdrawn {
		t.Errorf("cause = %v, want prefix-withdrawn (prefix match beats recency)",
			rep.Attributions[0].Cause.Kind)
	}
	if rep.Attributions[0].OnsetLatency != 10*time.Second {
		t.Errorf("onset latency = %v", rep.Attributions[0].OnsetLatency)
	}
}

func TestCauseWindowBounds(t *testing.T) {
	j := events.NewJournal()
	j.Append(events.Event{At: 1 * time.Second, Kind: events.LinkFailed, Subject: "old"})
	loops := []*core.Loop{{
		Prefix: routing.MustParsePrefix("203.0.113.0/24"),
		Start:  2 * time.Minute, End: 2*time.Minute + time.Second,
	}}
	rep := corr.Attribute(loops, j, 30*time.Second)
	if rep.Unattributed != 1 {
		t.Errorf("stale cause attributed: %+v", rep.Attributions[0].Cause)
	}
	// Widening the window picks it up.
	rep = corr.Attribute(loops, j, 3*time.Minute)
	if rep.Unattributed != 0 {
		t.Error("cause inside widened window not attributed")
	}
}

func TestHealerSelection(t *testing.T) {
	j := events.NewJournal()
	pfx := routing.MustParsePrefix("198.51.100.0/24")
	other := routing.MustParsePrefix("203.0.113.0/24")
	// FIB updates: one for another prefix right at loop end, the
	// prefix-matching one a bit later — the matching one wins.
	j.Append(events.Event{At: 20 * time.Second, Kind: events.FIBUpdated,
		Node: "n1", Prefixes: []routing.Prefix{other}})
	j.Append(events.Event{At: 21 * time.Second, Kind: events.FIBUpdated,
		Node: "n2", Prefixes: []routing.Prefix{pfx}})
	loops := []*core.Loop{{Prefix: pfx, Start: 10 * time.Second, End: 19 * time.Second}}
	rep := corr.Attribute(loops, j, 30*time.Second)
	h := rep.Attributions[0].Healer
	if h == nil || h.Node != "n2" {
		t.Fatalf("healer = %+v, want the prefix-matching update at n2", h)
	}
	if rep.Attributions[0].HealLatency != 2*time.Second {
		t.Errorf("heal latency = %v", rep.Attributions[0].HealLatency)
	}
}
