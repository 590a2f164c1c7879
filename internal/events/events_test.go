package events

import (
	"strings"
	"testing"
	"time"

	"loopscope/internal/routing"
)

func sample() *Journal {
	j := NewJournal()
	j.Append(Event{At: 1 * time.Second, Kind: LinkFailed, Subject: "a->b"})
	j.Append(Event{At: 2 * time.Second, Kind: LinkDownDetected, Node: "a", Subject: "a->b"})
	j.Append(Event{At: 3 * time.Second, Kind: LSAOriginated, Node: "a"})
	j.Append(Event{At: 4 * time.Second, Kind: SPFComputed, Node: "b"})
	j.Append(Event{At: 5 * time.Second, Kind: FIBUpdated, Node: "b",
		Prefixes: []routing.Prefix{routing.MustParsePrefix("10.0.0.0/24")}})
	j.Append(Event{At: 6 * time.Second, Kind: PrefixWithdrawn, Node: "e",
		Prefixes: []routing.Prefix{routing.MustParsePrefix("198.51.100.0/24")}})
	j.Append(Event{At: 7 * time.Second, Kind: LinkRepaired, Subject: "a->b"})
	return j
}

func TestJournalBasics(t *testing.T) {
	j := sample()
	if j.Len() != 7 {
		t.Fatalf("Len = %d", j.Len())
	}
	roots := j.RootCauses()
	if len(roots) != 3 {
		t.Fatalf("root causes = %d, want 3", len(roots))
	}
	if roots[0].Kind != LinkFailed || roots[1].Kind != PrefixWithdrawn || roots[2].Kind != LinkRepaired {
		t.Errorf("root cause kinds: %v %v %v", roots[0].Kind, roots[1].Kind, roots[2].Kind)
	}
	fibs := j.Filter(FIBUpdated)
	if len(fibs) != 1 || fibs[0].Node != "b" {
		t.Errorf("Filter(FIBUpdated) = %+v", fibs)
	}
	both := j.Filter(LinkFailed, LinkRepaired)
	if len(both) != 2 {
		t.Errorf("Filter(two kinds) = %d", len(both))
	}
	if len(j.Filter(LSAOriginated)) != 1 || len(j.Filter(SPFComputed)) != 1 {
		t.Errorf("Filter(LSAOriginated), Filter(SPFComputed) = %v, %v", j.Filter(LSAOriginated), j.Filter(SPFComputed))
	}
}

func TestKindStringsAndRootness(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("out-of-range kind must be unknown")
	}
	rooted := map[Kind]bool{LinkFailed: true, LinkRepaired: true,
		PrefixWithdrawn: true, PrefixAdvertised: true}
	for k := Kind(0); k < numKinds; k++ {
		if k.rootCause() != rooted[k] {
			t.Errorf("rootCause(%v) = %v", k, k.rootCause())
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1500 * time.Millisecond, Kind: FIBUpdated, Node: "c1",
		Prefixes: []routing.Prefix{routing.MustParsePrefix("10.0.0.0/8")}}
	s := e.String()
	for _, w := range []string{"1.5s", "fib-updated", "node=c1", "prefixes=1"} {
		if !strings.Contains(s, w) {
			t.Errorf("String %q missing %q", s, w)
		}
	}
}

func TestNilJournal(t *testing.T) {
	var j *Journal
	j.Append(Event{Kind: LinkFailed}) // must not panic
	if j.Len() != 0 || j.Filter(LinkFailed) != nil || j.RootCauses() != nil {
		t.Error("nil journal must be inert")
	}
}
