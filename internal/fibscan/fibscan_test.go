package fibscan

import (
	"slices"
	"strings"
	"testing"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// mkSnap assembles a snapshot from (name, routes, locals) triples.
type rspec struct {
	name   string
	routes map[string]string // prefix -> next hop
	locals []string
}

func mkSnap(t *testing.T, at int64, routers ...rspec) *Snapshot {
	t.Helper()
	s := &Snapshot{TakenNs: at}
	for i, r := range routers {
		rf := RouterFIB{Name: r.name, Revision: uint64(i + 1)}
		// Deterministic route order: sorted by prefix string.
		var keys []string
		for p := range r.routes {
			keys = append(keys, p)
		}
		for _, p := range sortedStrings(keys) {
			rf.Routes = append(rf.Routes, Route{
				Prefix:  routing.MustParsePrefix(p),
				NextHop: r.routes[p],
			})
		}
		for _, l := range r.locals {
			rf.Locals = append(rf.Locals, routing.MustParsePrefix(l))
		}
		s.Routers = append(s.Routers, rf)
	}
	return s
}

func sortedStrings(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// naiveCycle follows the snapshot's tables hop by hop for addr
// starting at router `from`, returning the cycle membership it runs
// into, or nil. This is the O(R) per-address reference the atom scan
// must agree with.
func naiveCycle(s *Snapshot, addr packet.Addr, from string) []string {
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
	visited := map[string]int{}
	var path []string
	cur := from
	for {
		if _, ok := tables[cur]; !ok {
			return nil // exits the snapshot
		}
		if _, _, ok := locals[cur].Lookup(addr); ok {
			return nil // delivered
		}
		if at, seen := visited[cur]; seen {
			return append([]string(nil), path[at:]...)
		}
		visited[cur] = len(path)
		path = append(path, cur)
		nh, _, ok := tables[cur].Lookup(addr)
		if !ok {
			return nil // dropped
		}
		cur = nh
	}
}

// sameCycle compares memberships regardless of rotation.
func sameCycle(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	double := strings.Join(append(append([]string(nil), a...), a...), ",") + ","
	return strings.Contains(double, strings.Join(b, ",")+",")
}

func TestScanSimpleBounce(t *testing.T) {
	s := mkSnap(t, 42,
		rspec{name: "c1", routes: map[string]string{"192.168.0.0/24": "c2"}},
		rspec{name: "c2", routes: map[string]string{"192.168.0.0/24": "c1"}},
		rspec{name: "edge", routes: map[string]string{"192.168.0.0/24": "c1"}},
	)
	rep := Scan(s)
	if rep.TakenNs != 42 || rep.Routers != 3 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1: %+v", len(rep.Cycles), rep.Cycles)
	}
	c := rep.Cycles[0]
	if !sameCycle(c.Routers, []string{"c1", "c2"}) {
		t.Errorf("cycle members %v, want c1/c2", c.Routers)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	p := routing.MustParsePrefix("192.168.0.0/24")
	if !covers(&c, p) {
		t.Errorf("cycle does not cover %v: %v", p, c.Ranges)
	}
	if len(c.Ranges) != 1 || c.Ranges[0].first() != packet.AddrFrom(192, 168, 0, 0) ||
		c.Ranges[0].last() != packet.AddrFrom(192, 168, 0, 255) {
		t.Errorf("ranges = %v, want exactly the /24", c.Ranges)
	}
	if len(c.Prefixes) != 1 || c.Prefixes[0] != p {
		t.Errorf("affected prefixes = %v", c.Prefixes)
	}
	// The edge router feeds the loop but is not a member.
	for _, name := range c.Routers {
		if name == "edge" {
			t.Error("edge router wrongly in cycle")
		}
	}
}

// A cycle through a router that delivers the destination locally is
// not a loop: local delivery precedes the FIB.
func TestScanLocalDeliveryBreaksCycle(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", routes: map[string]string{"10.0.0.0/8": "a"}, locals: []string{"10.0.0.0/8"}},
	)
	rep := Scan(s)
	if len(rep.Cycles) != 0 {
		t.Fatalf("cycle reported through an owning router: %+v", rep.Cycles)
	}
}

// Default-route-only routers: two routers whose only entries are
// 0.0.0.0/0 at each other loop the entire unowned address space.
func TestScanDefaultRouteOnly(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "a", routes: map[string]string{"0.0.0.0/0": "b"}, locals: []string{"10.1.0.0/16"}},
		rspec{name: "b", routes: map[string]string{"0.0.0.0/0": "a"}, locals: []string{"10.2.0.0/16"}},
	)
	rep := Scan(s)
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want 1", rep.Cycles)
	}
	c := rep.Cycles[0]
	if !sameCycle(c.Routers, []string{"a", "b"}) {
		t.Fatalf("members %v", c.Routers)
	}
	// The locally owned /16s are carved out of the looping space.
	for _, bad := range []string{"10.1.2.3", "10.2.200.1"} {
		addr := packet.MustParseAddr(bad)
		for _, rg := range c.Ranges {
			if inRange(rg, addr) {
				t.Errorf("locally delivered %s inside loop range %v", bad, rg)
			}
		}
	}
	// Everything else loops.
	for _, good := range []string{"0.0.0.0", "10.0.255.255", "10.3.0.0", "255.255.255.255"} {
		addr := packet.MustParseAddr(good)
		found := false
		for _, rg := range c.Ranges {
			if inRange(rg, addr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should loop but is outside every range", good)
		}
	}
	// Naive agreement on both sides of the carve-outs.
	for _, probe := range []string{"9.255.255.255", "10.1.0.0", "10.1.255.255", "10.2.0.0", "10.3.0.0"} {
		addr := packet.MustParseAddr(probe)
		naive := naiveCycle(s, addr, "a")
		scanned := false
		for _, rg := range c.Ranges {
			if inRange(rg, addr) {
				scanned = true
			}
		}
		if (naive != nil) != scanned {
			t.Errorf("%s: naive loop=%v, scan loop=%v", probe, naive != nil, scanned)
		}
	}
}

// A prefix hidden by a more-specific at one router but not another:
// the covering /16 loops between a and b, except the /24 that a hands
// off to its owner. The loop's ranges must carve the /24 out exactly.
func TestScanHiddenByMoreSpecific(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "a", routes: map[string]string{
			"172.16.0.0/16":  "b",
			"172.16.40.0/24": "owner",
		}},
		rspec{name: "b", routes: map[string]string{"172.16.0.0/16": "a"}},
		rspec{name: "owner", locals: []string{"172.16.40.0/24"}},
	)
	rep := Scan(s)
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want 1 (the /16 bounce)", rep.Cycles)
	}
	c := rep.Cycles[0]
	if !sameCycle(c.Routers, []string{"a", "b"}) {
		t.Fatalf("members %v", c.Routers)
	}
	hidden := packet.MustParseAddr("172.16.40.7")
	for _, rg := range c.Ranges {
		if inRange(rg, hidden) {
			t.Errorf("address %s is handed off at a, yet inside loop range %v", hidden, rg)
		}
	}
	for _, looping := range []string{"172.16.0.0", "172.16.39.255", "172.16.41.0", "172.16.255.255"} {
		addr := packet.MustParseAddr(looping)
		found := false
		for _, rg := range c.Ranges {
			if inRange(rg, addr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should still loop a<->b", looping)
		}
	}
	// The /16 is an affected prefix; the hidden /24 must not be (its
	// traffic is delivered, not looped)... it overlaps the cycle's
	// ranges only if some range intersects it — assert it does not.
	for _, p := range c.Prefixes {
		if p == routing.MustParsePrefix("172.16.40.0/24") {
			t.Errorf("hidden /24 listed as affected: %v", c.Prefixes)
		}
	}
}

// An ECMP-free tie: two ingresses route the same prefix over different
// single next hops that converge on the owner. No cycle may be
// fabricated from the fan-in.
func TestScanTieNoFalseCycle(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "in1", routes: map[string]string{"198.51.100.0/24": "left"}},
		rspec{name: "in2", routes: map[string]string{"198.51.100.0/24": "right"}},
		rspec{name: "left", routes: map[string]string{"198.51.100.0/24": "owner"}},
		rspec{name: "right", routes: map[string]string{"198.51.100.0/24": "owner"}},
		rspec{name: "owner", locals: []string{"198.51.100.0/24"}},
	)
	rep := Scan(s)
	if len(rep.Cycles) != 0 {
		t.Fatalf("fan-in produced phantom cycles: %+v", rep.Cycles)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", rep.Warnings)
	}
}

// A snapshot missing a router entirely: routes pointing at it degrade
// to exits, the scan completes, and a warning names the gap.
func TestScanMissingRouterDegrades(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "a", routes: map[string]string{
			"10.0.0.0/8":    "ghost",
			"172.16.0.0/16": "b",
		}},
		rspec{name: "b", routes: map[string]string{"172.16.0.0/16": "a"}},
	)
	rep := Scan(s)
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "ghost") {
		t.Fatalf("warnings = %v, want one naming ghost", rep.Warnings)
	}
	// The unrelated loop is still found.
	if len(rep.Cycles) != 1 || !sameCycle(rep.Cycles[0].Routers, []string{"a", "b"}) {
		t.Fatalf("degraded scan lost the a<->b loop: %+v", rep.Cycles)
	}
	// Nothing looping through the missing router.
	ghostAddr := packet.MustParseAddr("10.1.2.3")
	for _, c := range rep.Cycles {
		for _, rg := range c.Ranges {
			if inRange(rg, ghostAddr) {
				t.Errorf("traffic exiting via the missing router marked looping")
			}
		}
	}
}

func TestScanDuplicateRouterWarns(t *testing.T) {
	s := mkSnap(t, 0,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", locals: []string{"10.0.0.0/8"}},
	)
	rep := Scan(s)
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "duplicate") {
		t.Fatalf("warnings = %v", rep.Warnings)
	}
}

func TestScanEmptySnapshot(t *testing.T) {
	rep := Scan(&Snapshot{})
	if rep.Routers != 0 || len(rep.Cycles) != 0 {
		t.Fatalf("empty snapshot: %+v", rep)
	}
}

// The atom scan must agree with per-address hop walking on the
// synthetic benchmark topology: every injected loop's prefix loops,
// everything else terminates.
func TestScanAgreesWithNaiveOnSynthetic(t *testing.T) {
	snap, looped := Synthetic(40, 200, 7)
	rep := Scan(&snap)
	if len(rep.Warnings) != 0 {
		t.Fatalf("synthetic snapshot warned: %v", rep.Warnings)
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("no cycles found; %d injected", len(looped))
	}
	loopedSet := make(map[routing.Prefix]bool, len(looped))
	for _, p := range looped {
		loopedSet[p] = true
	}
	// Recall: every injected loop's prefix is covered by some cycle.
	for _, p := range looped {
		covered := false
		for i := range rep.Cycles {
			if covers(&rep.Cycles[i], p) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("injected loop on %v not found", p)
		}
	}
	// Precision: every address the scan says loops also loops under
	// the naive walk, with identical membership; sampled per range.
	for i := range rep.Cycles {
		c := &rep.Cycles[i]
		for _, rg := range c.Ranges {
			addr := rg.first()
			naive := naiveCycle(&snap, addr, c.Routers[0])
			if naive == nil {
				t.Fatalf("scan says %s loops at %v; naive walk disagrees", addr, c.Routers)
			}
			if !sameCycle(naive, c.Routers) {
				t.Errorf("membership mismatch at %s: scan %v, naive %v", addr, c.Routers, naive)
			}
		}
		// Affected prefixes must be exactly the injected ones.
		for _, p := range c.Prefixes {
			if !loopedSet[p] {
				t.Errorf("cycle claims non-injected prefix %v", p)
			}
		}
	}
	// And non-looped prefixes terminate from every hub.
	snapIdx := 0
	probe := packet.AddrFromUint32(0x10000000 | uint32(snapIdx)<<8)
	if loopedSet[routing.NewPrefix(probe, 24)] {
		probe = packet.AddrFromUint32(0x10000000 | uint32(1)<<8)
	}
	if got := naiveCycle(&snap, probe, "hub0"); got != nil {
		t.Errorf("control probe %s loops: %v", probe, got)
	}
}

func TestScanTimelineReusesUnchanged(t *testing.T) {
	s1 := mkSnap(t, 100,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", routes: map[string]string{"10.0.0.0/8": "a"}},
	)
	s2 := *s1
	s2.TakenNs = 200 // same revisions: must reuse
	s3 := mkSnap(t, 300,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", locals: []string{"10.0.0.0/8"}},
	)
	s3.Routers[1].Revision = 99 // changed table
	reps := ScanTimeline([]Snapshot{*s1, s2, *s3})
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].TakenNs != 100 || reps[1].TakenNs != 200 || reps[2].TakenNs != 300 {
		t.Errorf("timestamps not preserved: %d %d %d", reps[0].TakenNs, reps[1].TakenNs, reps[2].TakenNs)
	}
	if len(reps[0].Cycles) != 1 || len(reps[1].Cycles) != 1 {
		t.Errorf("loop lost across reuse: %d, %d", len(reps[0].Cycles), len(reps[1].Cycles))
	}
	if len(reps[2].Cycles) != 0 {
		t.Errorf("healed snapshot still reports cycles: %+v", reps[2].Cycles)
	}
}

// inRange reports whether addr falls inside r.
func inRange(r AddrRange, addr packet.Addr) bool {
	a := uint64(addr.Uint32())
	return r.lo <= a && a < r.hi
}

// covers reports whether any of c's ranges intersects p.
func covers(c *Cycle, p routing.Prefix) bool {
	return slices.ContainsFunc(c.Ranges, func(r AddrRange) bool { return r.overlaps(p) })
}
