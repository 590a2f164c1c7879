package events

import (
	"reflect"
	"testing"
	"time"

	"loopscope/internal/routing"
)

// TestEmptyJournal: a constructed-but-empty journal behaves like the
// nil journal for every accessor.
func TestEmptyJournal(t *testing.T) {
	j := NewJournal()
	if j.Len() != 0 {
		t.Errorf("Len = %d", j.Len())
	}
	if got := j.Filter(LinkFailed, FIBUpdated); got != nil {
		t.Errorf("Filter = %v", got)
	}
	if got := j.RootCauses(); got != nil {
		t.Errorf("RootCauses = %v", got)
	}
}

// TestSingleEventJournal: the one-entry window every accessor must get
// right — including a single non-root event yielding no root causes
// and Filter with no kinds yielding nothing.
func TestSingleEventJournal(t *testing.T) {
	e := Event{At: 3 * time.Second, Kind: SPFComputed, Node: "r1"}
	j := NewJournal()
	j.Append(e)
	if j.Len() != 1 || !reflect.DeepEqual(j.evs, []Event{e}) {
		t.Fatalf("journal = %v", j.evs)
	}
	if got := j.Filter(SPFComputed); len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Errorf("Filter(SPFComputed) = %v", got)
	}
	if got := j.Filter(); got != nil {
		t.Errorf("Filter() with no kinds = %v, want nothing", got)
	}
	if got := j.RootCauses(); got != nil {
		t.Errorf("RootCauses over a reaction-only journal = %v", got)
	}
}

// TestOutOfOrderTimestamps: the journal is an append-order log — it
// neither sorts nor rejects regressing timestamps (the contract is
// that the single-threaded simulator appends in time order; the
// journal itself just records). Accessors must preserve the append
// order and stay consistent.
func TestOutOfOrderTimestamps(t *testing.T) {
	pfx := routing.MustParsePrefix("10.0.0.0/24")
	evs := []Event{
		{At: 5 * time.Second, Kind: LinkFailed, Subject: "a->b"},
		{At: 2 * time.Second, Kind: FIBUpdated, Node: "b", Prefixes: []routing.Prefix{pfx}},
		{At: 2 * time.Second, Kind: FIBUpdated, Node: "c", Prefixes: []routing.Prefix{pfx}},
		{At: 9 * time.Second, Kind: LinkRepaired, Subject: "a->b"},
	}
	j := NewJournal()
	for _, e := range evs {
		j.Append(e)
	}
	if !reflect.DeepEqual(j.evs, evs) {
		t.Errorf("Append reordered the events: %v", j.evs)
	}
	fibs := j.Filter(FIBUpdated)
	if len(fibs) != 2 || fibs[0].Node != "b" || fibs[1].Node != "c" {
		t.Errorf("Filter reordered tied-timestamp events: %v", fibs)
	}
	roots := j.RootCauses()
	if len(roots) != 2 || roots[0].Kind != LinkFailed || roots[1].Kind != LinkRepaired {
		t.Errorf("RootCauses = %v", roots)
	}
}

// TestKindBounds: the out-of-range kinds render as unknown and are
// never root causes (numKinds itself is the first invalid value).
func TestKindBounds(t *testing.T) {
	for _, k := range []Kind{numKinds, Kind(255), Kind(-1)} {
		if k.String() != "unknown" {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
		if k.rootCause() {
			t.Errorf("Kind(%d) claims to be a root cause", k)
		}
	}
}
