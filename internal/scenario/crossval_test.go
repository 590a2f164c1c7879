package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// span reads a range's first and last address back from its
// "first-last" form.
func span(r fibscan.AddrRange) (first, last packet.Addr) {
	a, b, _ := strings.Cut(r.String(), "-")
	return packet.MustParseAddr(a), packet.MustParseAddr(b)
}

// covered reports whether any of rep's cycles has a range intersecting
// p.
func covered(rep *fibscan.Report, p routing.Prefix) bool {
	lo, hi := p.Range()
	return slices.ContainsFunc(rep.Cycles, func(c fibscan.Cycle) bool {
		return slices.ContainsFunc(c.Ranges, func(r fibscan.AddrRange) bool {
			first, last := span(r)
			return uint64(first.Uint32()) < hi && lo <= uint64(last.Uint32())
		})
	})
}

// walkSnapshot follows a snapshot's tables hop by hop for addr from
// router `from` and reports whether the walk closes a cycle, together
// with the membership. It is an independent check on the atom scan:
// plain LPM lookups, no atoms, no shared code beyond routing.Table.
func walkSnapshot(s *fibscan.Snapshot, addr packet.Addr, from string) (bool, map[string]bool) {
	tables := make(map[string]*routing.Table[string], len(s.Routers))
	locals := make(map[string]*routing.Table[struct{}], len(s.Routers))
	for i := range s.Routers {
		r := &s.Routers[i]
		if _, dup := tables[r.Name]; dup {
			continue
		}
		tab := routing.NewTable[string]()
		for _, rt := range r.Routes {
			tab.Insert(rt.Prefix, rt.NextHop)
		}
		loc := routing.NewTable[struct{}]()
		for _, p := range r.Locals {
			loc.Insert(p, struct{}{})
		}
		tables[r.Name], locals[r.Name] = tab, loc
	}
	visited := make(map[string]int)
	var path []string
	cur := from
	for {
		if _, ok := tables[cur]; !ok {
			return false, nil
		}
		if _, _, ok := locals[cur].Lookup(addr); ok {
			return false, nil
		}
		if at, seen := visited[cur]; seen {
			members := make(map[string]bool)
			for _, name := range path[at:] {
				members[name] = true
			}
			return true, members
		}
		visited[cur] = len(path)
		path = append(path, cur)
		nh, _, ok := tables[cur].Lookup(addr)
		if !ok {
			return false, nil
		}
		cur = nh
	}
}

// TestCrossValidationAcceptance runs the full control-plane /
// data-plane comparison on one backbone experiment:
//
//  1. recall 1.0 — every ground-truth loop burst has a FIB snapshot
//     whose scan reports a cycle covering the looping /24;
//  2. precision 1.0 — every cycle any scan reports is confirmed by an
//     independent hop walk over the same snapshot's tables;
//  3. every trace-detected loop is confirmed by the tables (no
//     trace-only bucket at this snapshot cadence);
//  4. rerunning the scan/collate/diff over the same inputs reproduces
//     the identical diff.
func TestCrossValidationAcceptance(t *testing.T) {
	spec := smallSpec()
	spec.Name = "crossval-bb"
	cv := BuildCrossVal(spec, 10*time.Millisecond)
	cv.Run()

	if len(cv.Snapshots) < 5 {
		t.Fatalf("only %d snapshots captured", len(cv.Snapshots))
	}
	for i := 1; i < len(cv.Snapshots); i++ {
		if cv.Snapshots[i].TakenNs < cv.Snapshots[i-1].TakenNs {
			t.Fatalf("snapshots out of order at %d", i)
		}
	}
	if len(cv.Net.GroundTruth) == 0 {
		t.Fatalf("simulation produced no loops")
	}

	reports := fibscan.ScanTimeline(cv.Snapshots)
	for _, rep := range reports {
		if len(rep.Warnings) != 0 {
			t.Fatalf("scan warned on a simulator snapshot: %v", rep.Warnings)
		}
	}

	// (2) Precision: every reported cycle holds up under a hop walk of
	// its own snapshot, membership included.
	for i, rep := range reports {
		for ci := range rep.Cycles {
			c := &rep.Cycles[ci]
			probe, _ := span(c.Ranges[0])
			loops, members := walkSnapshot(&cv.Snapshots[i], probe, c.Routers[0])
			if !loops {
				t.Fatalf("snapshot %d: scan reports cycle %v for %s; hop walk terminates",
					i, c.Routers, probe)
			}
			for _, name := range c.Routers {
				if !members[name] {
					t.Errorf("snapshot %d: scan cycle %v includes %s; hop walk membership %v",
						i, c.Routers, name, members)
				}
			}
		}
	}

	// (1) Recall: each tight ground-truth burst (events <= 200ms apart,
	// i.e. one live FIB loop) must be visible to a scan active during
	// the burst. Captures are change-driven, so the snapshot current at
	// the burst's start may predate it by a quiet stretch — it still
	// describes the tables the looping packets traversed.
	windows := cv.Net.GroundTruthWindows(200 * time.Millisecond)
	activeIdx := func(t int64) int {
		i := 0
		for i+1 < len(reports) && reports[i+1].TakenNs <= t {
			i++
		}
		return i
	}
	missed := 0
	for _, w := range windows {
		found := false
		for i := activeIdx(int64(w.Start)); i < len(reports) && reports[i].TakenNs <= int64(w.End); i++ {
			if covered(reports[i], w.Prefix) {
				found = true
				break
			}
		}
		if !found {
			missed++
			t.Errorf("ground-truth loop on %v [%v, %v] invisible to every in-window snapshot",
				w.Prefix, w.Start, w.End)
		}
	}
	t.Logf("ground-truth bursts=%d missed=%d snapshots=%d", len(windows), missed, len(cv.Snapshots))

	// (3) Cross-validation: the trace detector's loops all confirm.
	table := fibscan.Collate(reports, 2*time.Second)
	if len(table) == 0 {
		t.Fatalf("collate produced no table loops from %d reports", len(reports))
	}
	res := core.DetectRecords(cv.Records(), core.DefaultConfig())
	traces := make([]fibscan.TraceLoop, 0, len(res.Loops))
	for _, l := range res.Loops {
		traces = append(traces, fibscan.TraceLoop{Prefix: l.Prefix, Start: l.Start, End: l.End})
	}
	if len(traces) == 0 {
		t.Fatalf("trace detector found no loops")
	}
	d := fibscan.CrossValidate(table, traces, fibscan.DiffOptions{Slack: 2 * time.Second})
	if len(d.Confirmed) == 0 {
		t.Fatalf("no confirmed loops (table=%d traces=%d)", len(table), len(traces))
	}
	if len(d.TraceOnly) != 0 {
		t.Errorf("%d trace-only loops at 10ms snapshot cadence: %+v", len(d.TraceOnly), d.TraceOnly)
	}
	t.Logf("table=%d traces=%d confirmed=%d tableOnly=%d traceOnly=%d",
		len(table), len(traces), len(d.Confirmed), len(d.TableOnly), len(d.TraceOnly))

	// (4) Determinism: same snapshots + same trace loops → same diff.
	d2 := fibscan.CrossValidate(
		fibscan.Collate(fibscan.ScanTimeline(cv.Snapshots), 2*time.Second),
		traces, fibscan.DiffOptions{Slack: 2 * time.Second})
	if !reflect.DeepEqual(d, d2) {
		t.Errorf("cross-validation diff not reproducible")
	}
}

// TestCrossValSnapshotFileRoundTrip checks the captured timeline
// survives the shared on-disk format.
func TestCrossValSnapshotFileRoundTrip(t *testing.T) {
	spec := smallSpec()
	spec.Name = "crossval-file"
	spec.Duration = 30 * time.Second
	spec.PacketsPerSecond = 50
	cv := BuildCrossVal(spec, 50*time.Millisecond)
	cv.Run()

	f := cv.SnapshotFile()
	if f.Network != "crossval-file" || len(f.Snapshots) != len(cv.Snapshots) {
		t.Fatalf("file header: network=%q snapshots=%d", f.Network, len(f.Snapshots))
	}
	path := t.TempDir() + "/snaps.json"
	if err := fibscan.WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fibscan.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("snapshot timeline did not survive the disk round trip")
	}
	// The reread timeline scans identically.
	a := fibscan.Collate(fibscan.ScanTimeline(cv.Snapshots), 2*time.Second)
	b := fibscan.Collate(fibscan.ScanTimeline(got.Snapshots), 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reread snapshots collate differently")
	}
}
