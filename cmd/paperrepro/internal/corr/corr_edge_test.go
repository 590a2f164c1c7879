package corr_test

import (
	"strings"
	"testing"
	"time"

	"loopscope/cmd/paperrepro/internal/corr"
	"loopscope/internal/core"
	"loopscope/internal/events"
	"loopscope/internal/routing"
)

// edgeLoop builds the one-loop input the edge tests share.
func edgeLoop(pfx string, start, end time.Duration) []*core.Loop {
	return []*core.Loop{{
		Prefix: routing.MustParsePrefix(pfx),
		Start:  start, End: end,
	}}
}

// TestAttributeEmptyInputs: every combination of empty loops and empty
// journal must produce a well-formed, empty report — and Render must
// handle it.
func TestAttributeEmptyInputs(t *testing.T) {
	empty := events.NewJournal()
	for _, c := range []struct {
		name  string
		loops []*core.Loop
		j     *events.Journal
	}{
		{"no loops, empty journal", nil, empty},
		{"no loops, nil journal", nil, nil},
		{"loops, empty journal", edgeLoop("198.51.100.0/24", 10*time.Second, 12*time.Second), empty},
		{"loops, nil journal", edgeLoop("198.51.100.0/24", 10*time.Second, 12*time.Second), nil},
	} {
		rep := corr.Attribute(c.loops, c.j, 30*time.Second)
		if len(rep.Attributions) != len(c.loops) {
			t.Errorf("%s: %d attributions, want %d", c.name, len(rep.Attributions), len(c.loops))
		}
		if rep.Unattributed != len(c.loops) {
			t.Errorf("%s: unattributed = %d, want %d", c.name, rep.Unattributed, len(c.loops))
		}
		if len(rep.ByCause) != 0 {
			t.Errorf("%s: causes from an empty journal: %v", c.name, rep.ByCause)
		}
		if rep.OnsetLatencyMs.N() != 0 {
			t.Errorf("%s: onset CDF has %d samples", c.name, rep.OnsetLatencyMs.N())
		}
		for _, a := range rep.Attributions {
			if a.Cause != nil || a.Healer != nil {
				t.Errorf("%s: phantom cause/healer: %+v", c.name, a)
			}
		}
		if out := corr.Render(rep); !strings.Contains(out, "Loop-cause attribution") {
			t.Errorf("%s: Render broke on the empty report:\n%s", c.name, out)
		}
	}
}

// TestAttributeSingleEventWindow: with exactly one journal event the
// attribution window bounds are exercised directly — the window is
// inclusive at both ends, and an event after the loop's onset can
// never be its cause.
func TestAttributeSingleEventWindow(t *testing.T) {
	const window = 30 * time.Second
	start := 2 * time.Minute
	for _, c := range []struct {
		name       string
		at         time.Duration
		attributed bool
	}{
		{"just outside the window", start - window - time.Nanosecond, false},
		{"exactly at the window edge", start - window, true},
		{"exactly at loop onset", start, true},
		{"after loop onset", start + time.Nanosecond, false},
	} {
		j := events.NewJournal()
		j.Append(events.Event{At: c.at, Kind: events.LinkFailed, Subject: "a->b"})
		rep := corr.Attribute(edgeLoop("203.0.113.0/24", start, start+time.Second), j, window)
		a := rep.Attributions[0]
		if got := a.Cause != nil; got != c.attributed {
			t.Errorf("%s: attributed = %v, want %v", c.name, got, c.attributed)
			continue
		}
		if c.attributed && a.OnsetLatency != start-c.at {
			t.Errorf("%s: onset latency = %v, want %v", c.name, a.OnsetLatency, start-c.at)
		}
	}
}

// TestAttributeTiedTimestamps: root causes carrying the same timestamp
// (one journal flush of a burst) must not confuse selection — among
// ties the prefix-matching event wins, and a tie without any prefix
// match resolves deterministically to the last appended.
func TestAttributeTiedTimestamps(t *testing.T) {
	pfx := routing.MustParsePrefix("198.51.100.0/24")
	at := 10 * time.Second
	j := events.NewJournal()
	j.Append(events.Event{At: at, Kind: events.LinkFailed, Subject: "x->y"})
	j.Append(events.Event{At: at, Kind: events.PrefixWithdrawn, Node: "e1",
		Prefixes: []routing.Prefix{pfx}})
	j.Append(events.Event{At: at, Kind: events.LinkFailed, Subject: "y->z"})

	rep := corr.Attribute([]*core.Loop{{Prefix: pfx, Start: 12 * time.Second, End: 13 * time.Second}},
		j, 30*time.Second)
	a := rep.Attributions[0]
	if a.Cause == nil || a.Cause.Kind != events.PrefixWithdrawn {
		t.Fatalf("cause = %+v, want the prefix-matching withdrawal among the tied events", a.Cause)
	}

	// No prefix match anywhere: the tie resolves to the last appended.
	j2 := events.NewJournal()
	j2.Append(events.Event{At: at, Kind: events.LinkFailed, Subject: "x->y"})
	j2.Append(events.Event{At: at, Kind: events.LinkRepaired, Subject: "x->y"})
	rep = corr.Attribute(edgeLoop("203.0.113.0/24", 12*time.Second, 13*time.Second), j2, 30*time.Second)
	if c := rep.Attributions[0].Cause; c == nil || c.Kind != events.LinkRepaired {
		t.Errorf("tied no-prefix cause = %+v, want the last appended (link-repaired)", c)
	}
}

// TestHealerJustBeforeEnd: a prefix-matching FIB update landing just
// before the loop's last replica (the update raced packets already in
// flight) is still credited as the healer, with a negative heal
// latency — but only when no matching update follows the end.
func TestHealerJustBeforeEnd(t *testing.T) {
	pfx := routing.MustParsePrefix("198.51.100.0/24")
	loop := []*core.Loop{{Prefix: pfx, Start: 10 * time.Second, End: 20 * time.Second}}
	const window = 30 * time.Second

	j := events.NewJournal()
	j.Append(events.Event{At: 18 * time.Second, Kind: events.FIBUpdated, Node: "n1",
		Prefixes: []routing.Prefix{pfx}})
	rep := corr.Attribute(loop, j, window)
	a := rep.Attributions[0]
	if a.Healer == nil || a.Healer.Node != "n1" {
		t.Fatalf("healer = %+v, want the pre-end matching update", a.Healer)
	}
	if a.HealLatency != -2*time.Second {
		t.Errorf("heal latency = %v, want -2s", a.HealLatency)
	}

	// A matching update after the end takes precedence over the
	// pre-end one.
	j.Append(events.Event{At: 21 * time.Second, Kind: events.FIBUpdated, Node: "n2",
		Prefixes: []routing.Prefix{pfx}})
	rep = corr.Attribute(loop, j, window)
	if h := rep.Attributions[0].Healer; h == nil || h.Node != "n2" {
		t.Errorf("healer = %+v, want the post-end update to win", h)
	}

	// A pre-end update for an unrelated prefix is never a healer.
	j3 := events.NewJournal()
	j3.Append(events.Event{At: 18 * time.Second, Kind: events.FIBUpdated, Node: "n3",
		Prefixes: []routing.Prefix{routing.MustParsePrefix("203.0.113.0/24")}})
	rep = corr.Attribute(loop, j3, window)
	if h := rep.Attributions[0].Healer; h != nil {
		t.Errorf("unrelated pre-end update credited as healer: %+v", h)
	}

	// Too far back (beyond half a window) does not count either.
	j4 := events.NewJournal()
	j4.Append(events.Event{At: 20*time.Second - window/2 - time.Second, Kind: events.FIBUpdated,
		Node: "n4", Prefixes: []routing.Prefix{pfx}})
	rep = corr.Attribute(loop, j4, window)
	if h := rep.Attributions[0].Healer; h != nil {
		t.Errorf("update beyond the half-window back credited as healer: %+v", h)
	}
}
