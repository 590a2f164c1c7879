// Package events is the routing-event journal: a time-ordered record
// of everything the control plane did — link failures and repairs,
// LSA originations, SPF runs, FIB updates, BGP withdrawals and
// advertisements. The paper closes by saying that collecting
// "complete BGP and IS-IS routing data" alongside the packet traces
// would let loops be explained, not just detected; the journal is that
// data source inside the simulation, and cmd/paperrepro/internal/corr is
// the analysis the authors were proposing.
package events

import (
	"fmt"
	"strings"
	"time"

	"loopscope/internal/routing"
)

// Kind classifies journal events.
type Kind int

// Event kinds. LinkFailed/LinkRepaired/PrefixWithdrawn/
// PrefixAdvertised are root causes (exogenous inputs); the rest is the
// control plane reacting.
const (
	LinkFailed Kind = iota
	LinkRepaired
	LinkDownDetected
	LinkUpDetected
	LSAOriginated
	SPFComputed
	FIBUpdated
	PrefixWithdrawn
	PrefixAdvertised
	BGPBestChanged
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkFailed:
		return "link-failed"
	case LinkRepaired:
		return "link-repaired"
	case LinkDownDetected:
		return "link-down-detected"
	case LinkUpDetected:
		return "link-up-detected"
	case LSAOriginated:
		return "lsa-originated"
	case SPFComputed:
		return "spf-computed"
	case FIBUpdated:
		return "fib-updated"
	case PrefixWithdrawn:
		return "prefix-withdrawn"
	case PrefixAdvertised:
		return "prefix-advertised"
	case BGPBestChanged:
		return "bgp-best-changed"
	default:
		return "unknown"
	}
}

// rootCause reports whether the kind is an exogenous input rather
// than a protocol reaction.
func (k Kind) rootCause() bool {
	switch k {
	case LinkFailed, LinkRepaired, PrefixWithdrawn, PrefixAdvertised:
		return true
	default:
		return false
	}
}

// Event is one journal entry.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node names the router involved ("" for network-level events).
	Node string
	// Subject names the link or other object involved.
	Subject string
	// Prefixes lists affected prefixes when known (BGP events; FIB
	// updates carry the changed prefixes).
	Prefixes []routing.Prefix
}

// String formats the event for logs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %-20s", e.At.Round(time.Millisecond), e.Kind)
	if e.Node != "" {
		fmt.Fprintf(&b, " node=%s", e.Node)
	}
	if e.Subject != "" {
		fmt.Fprintf(&b, " %s", e.Subject)
	}
	if len(e.Prefixes) > 0 {
		fmt.Fprintf(&b, " prefixes=%d", len(e.Prefixes))
	}
	return b.String()
}

// Journal accumulates events in append order (which is time order,
// since the simulator is single-threaded). A nil *Journal is valid
// and drops everything, so instrumented code never needs a nil check
// at the call site beyond calling the method.
type Journal struct {
	evs []Event
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Append records an event. No-op on a nil journal.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.evs = append(j.evs, e)
}

// Len returns the number of events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.evs)
}

// Filter returns the events of the given kinds, in order.
func (j *Journal) Filter(kinds ...Kind) []Event {
	if j == nil {
		return nil
	}
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range j.evs {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// RootCauses returns the exogenous events, in order.
func (j *Journal) RootCauses() []Event {
	if j == nil {
		return nil
	}
	var out []Event
	for _, e := range j.evs {
		if e.Kind.rootCause() {
			out = append(out, e)
		}
	}
	return out
}
