// Package corr correlates detected routing loops with the routing-
// event journal — the analysis the paper proposes as future work
// ("extending our data collection techniques to include complete BGP
// and IS-IS routing data ... allow us to provide explanations of the
// causes and effects of routing loops").
//
// Given the detector's merged loops and a journal of control-plane
// activity, Attribute assigns each loop a root cause: the latest
// exogenous event (link failure, link repair, prefix withdrawal or
// re-advertisement) inside an attribution window before the loop's
// first replica — preferring, when the event names prefixes, one that
// covers the loop's prefix. It also finds the FIB update that most
// plausibly closed the loop, giving the full story: cause → loop onset
// → convergence.
package corr

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/events"
	"loopscope/internal/stats"
)

// attribution ties one detected loop to its control-plane story.
type attribution struct {
	Loop *core.Loop
	// Cause is the attributed root-cause event, nil when nothing
	// plausible was found in the window.
	Cause *events.Event
	// OnsetLatency is loop start - cause time: how long after the
	// triggering event the first replica appeared on the link.
	OnsetLatency time.Duration
	// Healer is the FIB update nearest after the loop's last replica
	// (within the window), nil if none: the update that plausibly
	// restored consistency.
	Healer *events.Event
	// HealLatency is healer time - loop end (negative values mean the
	// update landed just before the last replica was captured, which
	// happens when the last looping packet was already in flight).
	HealLatency time.Duration
}

// Report summarises an attribution run.
type Report struct {
	Attributions []attribution
	// ByCause counts attributed loops per root-cause kind;
	// unattributed loops count under the zero Kind with ok=false, see
	// Unattributed.
	ByCause      map[events.Kind]int
	Unattributed int
	// OnsetLatencyMs is the CDF of attribution onset latencies.
	OnsetLatencyMs *stats.CDF
}

// Attribute correlates loops with the journal. window bounds how far
// back (for causes) and forward (for healers) the search looks; 30
// seconds covers IGP convergence, a few minutes covers BGP.
func Attribute(loops []*core.Loop, j *events.Journal, window time.Duration) *Report {
	rep := &Report{
		ByCause:        make(map[events.Kind]int),
		OnsetLatencyMs: &stats.CDF{},
	}
	roots := j.RootCauses()
	fibs := j.Filter(events.FIBUpdated)

	for _, l := range loops {
		a := attribution{Loop: l}
		if c := findCause(roots, l, window); c != nil {
			a.Cause = c
			a.OnsetLatency = l.Start - c.At
			rep.ByCause[c.Kind]++
			rep.OnsetLatencyMs.Add(float64(a.OnsetLatency) / float64(time.Millisecond))
		} else {
			rep.Unattributed++
		}
		if h := findHealer(fibs, l, window); h != nil {
			a.Healer = h
			a.HealLatency = h.At - l.End
		}
		rep.Attributions = append(rep.Attributions, a)
	}
	return rep
}

// covers reports whether the event names a prefix covering the loop's.
func covers(e *events.Event, l *core.Loop) bool {
	for _, p := range e.Prefixes {
		if p.Overlaps(l.Prefix) {
			return true
		}
	}
	return false
}

// findCause picks the best root cause: the latest prefix-matching
// event in [start-window, start], else the latest any-prefix event in
// the same range.
func findCause(roots []events.Event, l *core.Loop, window time.Duration) *events.Event {
	lo := l.Start - window
	var best, bestAny *events.Event
	for i := range roots {
		e := &roots[i]
		if e.At > l.Start {
			break // journal is time-ordered
		}
		if e.At < lo {
			continue
		}
		bestAny = e
		if len(e.Prefixes) > 0 && covers(e, l) {
			best = e
		}
	}
	if best != nil {
		return best
	}
	return bestAny
}

// findHealer picks the first prefix-matching FIB update at or after
// the loop's end (within window), else the first FIB update in that
// range. FIB updates from just before the end are also considered
// (half a window back) because the final looping packets may have
// been in flight when consistency was restored.
func findHealer(fibs []events.Event, l *core.Loop, window time.Duration) *events.Event {
	lo, hi := l.End-window/2, l.End+window
	i := sort.Search(len(fibs), func(i int) bool { return fibs[i].At >= lo })
	var early, any *events.Event
	for ; i < len(fibs) && fibs[i].At <= hi; i++ {
		e := &fibs[i]
		if covers(e, l) {
			if e.At >= l.End {
				return e
			}
			early = e // latest covering update just before the end
		}
		if any == nil && e.At >= l.End {
			any = e
		}
	}
	if early != nil {
		return early
	}
	return any
}

// Render prints the attribution report.
func Render(rep *Report) string {
	var b strings.Builder
	b.WriteString("Loop-cause attribution (detector loops x routing journal):\n")
	kinds := []events.Kind{events.LinkFailed, events.LinkRepaired,
		events.PrefixWithdrawn, events.PrefixAdvertised}
	for _, k := range kinds {
		if n := rep.ByCause[k]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %d loops\n", k, n)
		}
	}
	if rep.Unattributed > 0 {
		fmt.Fprintf(&b, "  %-20s %d loops\n", "unattributed", rep.Unattributed)
	}
	if rep.OnsetLatencyMs.N() > 0 {
		fmt.Fprintf(&b, "  onset latency (cause -> first replica): p50=%.0fms p90=%.0fms\n",
			rep.OnsetLatencyMs.Quantile(0.5), rep.OnsetLatencyMs.Quantile(0.9))
	}
	for _, a := range rep.Attributions {
		cause := "?"
		if a.Cause != nil {
			cause = fmt.Sprintf("%v %s (+%v)", a.Cause.Kind, a.Cause.Subject,
				a.OnsetLatency.Round(time.Millisecond))
			if a.Cause.Subject == "" && a.Cause.Node != "" {
				cause = fmt.Sprintf("%v at %s (+%v)", a.Cause.Kind, a.Cause.Node,
					a.OnsetLatency.Round(time.Millisecond))
			}
		}
		heal := ""
		if a.Healer != nil {
			heal = fmt.Sprintf("  healed by FIB update at %s (%+v)",
				a.Healer.Node, a.HealLatency.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "  loop %-18s %8v  cause: %s%s\n",
			a.Loop.Prefix, a.Loop.Duration().Round(time.Millisecond), cause, heal)
	}
	return b.String()
}
