package fibscan

import (
	"sort"
	"strings"
	"time"

	"loopscope/internal/routing"
)

// TraceLoop is one loop as the trace-based detector reported it: a
// destination aggregate and the window over which replica streams were
// observed (core.Loop, or a jsonLoop row from loopdetect -json).
type TraceLoop struct {
	Prefix routing.Prefix
	Start  time.Duration
	End    time.Duration
}

// TableLoop is one loop as the snapshot timeline shows it: a cycle
// membership observed over a contiguous run of snapshots. Ranges and
// Prefixes are the union over the run (a loop's atom footprint can
// shift as unrelated FIB entries change around it).
type TableLoop struct {
	Routers   []string         `json:"routers"`
	Ranges    []AddrRange      `json:"ranges"`
	Prefixes  []routing.Prefix `json:"prefixes"`
	FirstSeen time.Duration    `json:"firstSeenNs"`
	LastSeen  time.Duration    `json:"lastSeenNs"`
	// Snapshots counts the captures the cycle appeared in.
	Snapshots int `json:"snapshots"`
}

// coversPrefix reports whether any of the loop's ranges intersects p.
func (t *TableLoop) coversPrefix(p routing.Prefix) bool {
	for _, r := range t.Ranges {
		if r.overlaps(p) {
			return true
		}
	}
	return false
}

// Collate folds a timeline of scan reports into table loops: the same
// cycle membership seen in snapshots separated by at most mergeGap is
// one loop occurrence; a longer silence closes the occurrence and a
// later reappearance opens a new one (a flap, not one long loop).
func Collate(reports []*Report, mergeGap time.Duration) []TableLoop {
	type open struct {
		loop TableLoop
	}
	active := make(map[string]*open)
	var out []TableLoop
	for _, rep := range reports {
		at := rep.Taken()
		for i := range rep.Cycles {
			c := &rep.Cycles[i]
			key := strings.Join(c.Routers, "\x00")
			acc, ok := active[key]
			if ok && at-acc.loop.LastSeen > mergeGap {
				out = append(out, acc.loop)
				ok = false
			}
			if !ok {
				active[key] = &open{loop: TableLoop{
					Routers:   c.Routers,
					Ranges:    append([]AddrRange(nil), c.Ranges...),
					Prefixes:  append([]routing.Prefix(nil), c.Prefixes...),
					FirstSeen: at,
					LastSeen:  at,
					Snapshots: 1,
				}}
				continue
			}
			acc.loop.LastSeen = at
			acc.loop.Snapshots++
			acc.loop.Ranges = unionRanges(acc.loop.Ranges, c.Ranges)
			acc.loop.Prefixes = unionPrefixes(acc.loop.Prefixes, c.Prefixes)
		}
	}
	for _, acc := range active {
		out = append(out, acc.loop)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstSeen != out[j].FirstSeen {
			return out[i].FirstSeen < out[j].FirstSeen
		}
		return strings.Join(out[i].Routers, ",") < strings.Join(out[j].Routers, ",")
	})
	return out
}

// unionRanges merges two ascending range lists, coalescing overlaps
// and adjacency.
func unionRanges(a, b []AddrRange) []AddrRange {
	all := append(append([]AddrRange(nil), a...), b...)
	sort.Slice(all, func(i, j int) bool { return all[i].lo < all[j].lo })
	out := all[:0]
	for _, r := range all {
		if n := len(out); n > 0 && r.lo <= out[n-1].hi {
			if r.hi > out[n-1].hi {
				out[n-1].hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// unionPrefixes merges two prefix lists, deduplicated and sorted.
func unionPrefixes(a, b []routing.Prefix) []routing.Prefix {
	set := make(map[routing.Prefix]struct{}, len(a)+len(b))
	for _, p := range a {
		set[p] = struct{}{}
	}
	for _, p := range b {
		set[p] = struct{}{}
	}
	out := make([]routing.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, _ := out[i].Range()
		aj, _ := out[j].Range()
		if ai != aj {
			return ai < aj
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}

// DiffOptions tunes the table/trace matching.
type DiffOptions struct {
	// Slack widens both windows before testing overlap. Packet
	// observation lags FIB state (a loop exists before the first
	// looping packet crosses the vantage and after the last), so a
	// strict intersection would misclassify edge cases. Default 1s.
	Slack time.Duration
}

// Confirmation pairs one table loop with the trace loops that confirm
// it: control plane said loop, data plane saw it.
type Confirmation struct {
	Table  TableLoop   `json:"table"`
	Traces []TraceLoop `json:"traces"`
}

// Diff is the cross-validation verdict over one run.
type Diff struct {
	// Confirmed: cycles in the tables that packets also hit.
	Confirmed []Confirmation `json:"confirmed"`
	// TableOnly: cycles the snapshots show but no packet confirmed —
	// no traffic was addressed into the atom during the loop's life,
	// the loop healed before any packet reached it, or it never
	// included the monitored vantage.
	TableOnly []TableLoop `json:"tableOnly"`
	// TraceOnly: loops packets experienced that no snapshot shows — a
	// convergence race shorter than the snapshot cadence, or a
	// vantage outside the snapshotted region.
	TraceOnly []TraceLoop `json:"traceOnly"`
}

// matches reports whether a table loop and a trace loop describe the
// same event: windows overlap (with slack) and the trace's aggregate
// falls inside the cycle's address footprint.
func matches(t *TableLoop, tr *TraceLoop, slack time.Duration) bool {
	if t.FirstSeen-slack > tr.End || tr.Start > t.LastSeen+slack {
		return false
	}
	return t.coversPrefix(tr.Prefix)
}

// CrossValidate classifies every loop either detector found into
// confirmed / table-only / trace-only. Classification is a pure
// function of its inputs — rerunning the same snapshots and trace
// report reproduces the identical diff.
func CrossValidate(table []TableLoop, traces []TraceLoop, opt DiffOptions) *Diff {
	slack := opt.Slack
	if slack == 0 {
		slack = time.Second
	}
	d := &Diff{}
	traceMatched := make([]bool, len(traces))
	for i := range table {
		t := &table[i]
		var hits []TraceLoop
		for j := range traces {
			if matches(t, &traces[j], slack) {
				hits = append(hits, traces[j])
				traceMatched[j] = true
			}
		}
		if len(hits) > 0 {
			d.Confirmed = append(d.Confirmed, Confirmation{Table: *t, Traces: hits})
		} else {
			d.TableOnly = append(d.TableOnly, *t)
		}
	}
	for j := range traces {
		if !traceMatched[j] {
			d.TraceOnly = append(d.TraceOnly, traces[j])
		}
	}
	return d
}
