package fibscan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"loopscope/internal/routing"
)

// Sentinel next-hop codes in a router's forwarding column.
// Non-negative values index Snapshot.Routers.
const (
	nhDrop  int32 = -1 // no route, or next hop outside the snapshot
	nhLocal int32 = -2 // locally delivered: terminal, never part of a loop
)

// Scan partitions the destination address space into header-space
// atoms and reports every forwarding cycle in the snapshot. It never
// panics on degraded input: unknown next hops, missing routers and
// duplicate names degrade the scan and surface in Report.Warnings.
func Scan(s *Snapshot) *Report {
	return new(Timeline).Step(s)
}

// ScanTimeline scans a sequence of snapshots through one Timeline.
// Reports are returned in input order with their own capture times.
func ScanTimeline(snaps []Snapshot) []*Report {
	var t Timeline
	out := make([]*Report, len(snaps))
	for i := range snaps {
		out[i] = t.Step(&snaps[i])
	}
	return out
}

// Timeline scans consecutive snapshots of one network, keeping from
// each step what spares the next one work: its own copy of the tables,
// the atom boundaries, each router's forwarding column as runs of atoms
// with one next hop (so memory grows with the tables, not with routers
// × atoms) and the cycles found on each atom. A step re-flattens only
// routers whose table differs from the kept one — the tables decide,
// never the revision field — re-walks only atoms on which a flattened
// column moved, and rebuilds the cycle list from the per-atom findings.
//
// There is one code path. A router list that differs in length, name
// or order, or a last step that warned (duplicate name, missing next
// hop) or saw no routers, voids the name → index map or the claim that
// an unchanged table flattens as before: the step forgets the kept
// tables, so every router is changed. Boundaries that moved void the
// columns: every router is flattened anew and every atom is dirty. The
// boundaries are collected again only when some changed router's set of
// prefix endpoints moved. A first step is both, which is Scan.
//
// The zero value is ready to use; Step only reads its argument.
type Timeline struct {
	routers []RouterFIB      // own copy of the last step's tables
	idx     map[string]int32 // router name → index, first occurrence
	clean   bool             // the last step scanned routers and warned of nothing

	bounds  []uint64         // atom a is [bounds[a], bounds[a+1])
	runs    [][]run          // per router, its decisions in ascending atoms
	cycles  [][][]int32      // per atom, the canonical cycles found on it
	dirty   []bool           // per atom: some router's decision moved this step
	scratch []int32          // one router's freshly flattened column
	order   []int32          // one router's routes, shortest prefix first
	locals  []routing.Prefix // one router's locals, in address order
	ends    []uint64         // two tables' sorted endpoint sets, compared
	from    []int32          // per atom, where its movers start in movers (see walk)
	movers  []int32          // routers by the atoms their runs start on

	rewalked  int // atoms walked, over the Timeline's life
	visited   int // routers stepped on by walks, over the Timeline's life
	collected int // boundary collections, over the Timeline's life
	painted   int // atoms painted by fillRouter, over the Timeline's life
}

// run says that a router decides nh from atom start up to the start of
// its next run, or to the last atom.
type run struct{ start, nh int32 }

// Step scans the next snapshot of the timeline. The report is what a
// fresh Scan of s would return, warnings included.
func (t *Timeline) Step(s *Snapshot) *Report {
	rep := &Report{TakenNs: s.TakenNs, Routers: len(s.Routers)}
	R := len(s.Routers)
	if R == 0 {
		t.clean = false // nothing for the next snapshot to differ from
		return rep
	}
	sameName := func(a, b RouterFIB) bool { return a.Name == b.Name }
	if !t.clean || !slices.EqualFunc(s.Routers, t.routers, sameName) {
		// Forget: index the names and keep empty tables. Duplicates
		// keep the first occurrence: the scan must not guess which
		// table is current.
		t.routers = make([]RouterFIB, R)
		t.idx = make(map[string]int32, R)
		t.bounds = nil
		for i := range s.Routers {
			name := s.Routers[i].Name
			t.routers[i].Name = name
			if _, dup := t.idx[name]; dup {
				rep.warnf("duplicate router %q in snapshot; keeping the first", name)
				continue
			}
			t.idx[name] = int32(i)
		}
	}

	changed := make([]bool, R)
	moved := t.bounds == nil // some endpoint set moved, or none is kept
	for r := range s.Routers {
		old, now := &t.routers[r], &s.Routers[r]
		if !sameTable(old, now) {
			// The union of unchanged sets is unchanged: the partition
			// can only move where a changed table's endpoints did.
			moved = moved || !t.sameEnds(old, now)
			old.Routes = append(old.Routes[:0], now.Routes...)
			old.Locals = append(old.Locals[:0], now.Locals...)
			changed[r] = true
		}
	}
	// Atom boundaries: the endpoints of every prefix in every table.
	// Within an interval that crosses no prefix boundary, every
	// router's LPM result is constant, so these intervals ARE the
	// atoms (modulo merging equal-behaviour neighbours, which the
	// cycle accumulator does per cycle).
	all := false // new partition: every router flattened, every atom dirty
	if moved {
		t.collected++
		if bounds := collectBounds(s); !slices.Equal(bounds, t.bounds) {
			all = true
			atoms := len(bounds) - 1
			t.bounds = bounds
			t.runs = make([][]run, R)
			t.cycles = make([][][]int32, atoms)
			t.scratch = make([]int32, atoms)
			t.dirty = make([]bool, atoms)
			for a := range t.dirty {
				t.dirty[a] = true
			}
		}
	}
	atoms := len(t.bounds) - 1
	rep.Atoms = atoms

	// Flatten into scratch; on a kept partition the atoms where the
	// column differs from the router's runs are the dirty ones. Then
	// the column is kept as runs.
	var missing []string
	col := t.scratch
	for r := 0; r < R; r++ {
		if !changed[r] && !all {
			continue
		}
		for a := range col {
			col[a] = nhDrop
		}
		t.fillRouter(&t.routers[r], col, &missing)
		old := t.runs[r]
		for i, rn := range old {
			end := int32(atoms)
			if i+1 < len(old) {
				end = old[i+1].start
			}
			for a := rn.start; a < end; a++ {
				if col[a] != rn.nh {
					t.dirty[a] = true
				}
			}
		}
		runs := append(old[:0], run{0, col[0]})
		for a := 1; a < atoms; a++ {
			if col[a] != col[a-1] {
				runs = append(runs, run{int32(a), col[a]})
			}
		}
		t.runs[r] = runs
	}
	slices.Sort(missing)
	for _, name := range slices.Compact(missing) {
		rep.warnf("next hop %q is not in the snapshot; treating its routes as exits (degraded scan)", name)
	}
	t.clean = len(rep.Warnings) == 0

	t.walk(R)
	acc := newCycleAccumulator(t.bounds)
	for a, found := range t.cycles {
		for _, cycle := range found {
			acc.record(a, cycle)
		}
	}
	rep.Cycles = acc.finish(t.routers)
	return rep
}

// sameTable reports whether two routers forward alike, entry for entry.
func sameTable(a, b *RouterFIB) bool {
	return slices.Equal(a.Routes, b.Routes) && slices.Equal(a.Locals, b.Locals)
}

// sameEnds reports whether two tables hold the same set of prefix
// endpoints. Equal merges of routes and locals hold equal prefixes, so
// they prove it without sorting: a table written in ascending order
// whose next hops changed, or whose prefixes moved between routes and
// locals, merges as before. Otherwise both endpoint sets are sorted in
// one reused buffer.
func (t *Timeline) sameEnds(a, b *RouterFIB) bool {
	if n := len(a.Routes) + len(a.Locals); n == len(b.Routes)+len(b.Locals) {
		ma, mb := merger{a.Routes, a.Locals}, merger{b.Routes, b.Locals}
		for n > 0 && ma.next() == mb.next() {
			n--
		}
		if n == 0 {
			return true
		}
	}
	ea := sortedSet(appendEnds(t.ends[:0], a))
	t.ends = appendEnds(ea, b)
	return slices.Equal(ea, sortedSet(t.ends[len(ea):]))
}

// merger yields a table's route and local prefixes as one sequence,
// in comparePrefix order when both lists are in it.
type merger struct {
	routes []Route
	locals []routing.Prefix
}

// next pops the smaller head; it must not be called on an empty merger.
func (m *merger) next() routing.Prefix {
	if len(m.locals) == 0 || len(m.routes) > 0 && comparePrefix(m.routes[0].Prefix, m.locals[0]) <= 0 {
		p := m.routes[0].Prefix
		m.routes = m.routes[1:]
		return p
	}
	p := m.locals[0]
	m.locals = m.locals[1:]
	return p
}

// comparePrefix orders prefixes by first address, then by length.
func comparePrefix(a, b routing.Prefix) int {
	return cmp.Or(cmp.Compare(a.Addr.Uint32(), b.Addr.Uint32()), cmp.Compare(a.Bits, b.Bits))
}

// walk extracts the cycles of every dirty atom's functional graph over
// R routers, replacing what was known for the atom, and leaves no atom
// dirty. The graph of atom a differs from that of a−1 only at the
// routers whose run starts at a, its movers (on atom 0, every router).
// So a's cycles are a−1's that hold no mover, plus those closed by
// walks from the movers; a walk stops at a router already settled on a,
// kept cycles included, so every cycle it closes holds a mover. a−1's
// cycles are current: atoms are walked in ascending order, and a clean
// atom's cycles still hold. For the same reason each router's cursor
// into its runs only moves forward.
func (t *Timeline) walk(R int) {
	atoms := len(t.dirty)
	// Atom a's movers are t.movers[from[a]:from[a+1]], bucketed by the
	// start of every run.
	from := slices.Grow(t.from[:0], atoms+2)[:atoms+2]
	clear(from)
	for _, runs := range t.runs {
		for _, rn := range runs {
			from[rn.start+2]++
		}
	}
	for a := 2; a < len(from); a++ {
		from[a] += from[a-1]
	}
	t.movers = slices.Grow(t.movers[:0], int(from[atoms+1]))[:from[atoms+1]]
	for r, runs := range t.runs {
		for _, rn := range runs {
			t.movers[from[rn.start+1]] = int32(r)
			from[rn.start+1]++
		}
	}
	t.from = from

	seen := make([]int32, R)   // last atom that fully processed the router
	moved := make([]int32, R)  // last atom the router moved on
	onPath := make([]int32, R) // walk id currently holding the router
	pathPos := make([]int32, R)
	at := make([]int32, R) // per router, its run holding the current atom
	for i := range seen {
		seen[i], moved[i], onPath[i] = -1, -1, -1
	}
	path := make([]int32, 0, R)
	walkID := int32(-1)
	for a := 0; a < atoms; a++ {
		if !t.dirty[a] {
			continue
		}
		t.dirty[a] = false
		t.rewalked++
		movers := t.movers[from[a]:from[a+1]]
		for _, r := range movers {
			moved[r] = int32(a)
		}
		var found [][]int32
		if a > 0 {
			for _, c := range t.cycles[a-1] {
				if !slices.ContainsFunc(c, func(r int32) bool { return moved[r] == int32(a) }) {
					found = append(found, c)
					for _, r := range c {
						seen[r] = int32(a)
					}
				}
			}
		}
		for _, start := range movers {
			if seen[start] == int32(a) {
				continue
			}
			walkID++
			path = path[:0]
			cur := start
			for cur >= 0 && seen[cur] != int32(a) {
				if onPath[cur] == walkID {
					// Closed a cycle: the tail of path from cur's
					// position is the loop, in forwarding order.
					found = append(found, canonical(path[pathPos[cur]:]))
					break
				}
				onPath[cur] = walkID
				pathPos[cur] = int32(len(path))
				path = append(path, cur)
				runs, i := t.runs[cur], at[cur]
				for int(i)+1 < len(runs) && int(runs[i+1].start) <= a {
					i++
				}
				at[cur], cur = i, runs[i].nh
			}
			t.visited += len(path)
			for _, r := range path {
				seen[r] = int32(a)
			}
		}
		t.cycles[a] = found
	}
}

// warnf appends a formatted warning to the report.
func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// collectBounds returns the sorted, deduplicated atom boundaries:
// every prefix endpoint in every router's FIB and local table, plus
// the ends of the address space.
func collectBounds(s *Snapshot) []uint64 {
	bounds := []uint64{0, 1 << 32}
	for i := range s.Routers {
		bounds = appendEnds(bounds, &s.Routers[i])
	}
	return sortedSet(bounds)
}

// appendEnds appends the endpoints of every prefix in rf's FIB and
// local table.
func appendEnds(ends []uint64, rf *RouterFIB) []uint64 {
	for _, rt := range rf.Routes {
		lo, hi := rt.Prefix.Range()
		ends = append(ends, lo, hi)
	}
	for _, p := range rf.Locals {
		lo, hi := p.Range()
		ends = append(ends, lo, hi)
	}
	return ends
}

// sortedSet sorts s and drops repeats, in place.
func sortedSet(s []uint64) []uint64 {
	slices.Sort(s)
	return slices.Compact(s)
}

// fillRouter computes one router's forwarding decision per atom into
// col (length = number of atoms, every entry nhDrop). Routes are painted
// shortest prefix first, each over its own atoms, so a longer prefix
// overwrites those it nests in: longest-prefix match. Each length's
// routes are put in address order by stable sorts (a counting sort on
// the length, then, unless they are in order already, by address), so
// a repeated prefix's entries are adjacent in input order: only the
// last is painted, as routing.Table.Insert keeps the last, and no atom
// is painted more than once per length. Locals are painted last
// because local delivery wins over any FIB match, in address order
// (sorted in a copy unless they are in it already: the kept table keeps
// the input's order), skipping any nested in the last one painted, so
// no atom is painted twice by them.
func (t *Timeline) fillRouter(rf *RouterFIB, col []int32, missing *[]string) {
	var from [34]int32 // from[b]: the next slot in order of a /b route
	for _, rt := range rf.Routes {
		from[rt.Prefix.Bits+1]++
	}
	for b := 1; b < len(from); b++ {
		from[b] += from[b-1]
	}
	order := slices.Grow(t.order[:0], len(rf.Routes))[:len(rf.Routes)]
	for i, rt := range rf.Routes {
		order[from[rt.Prefix.Bits]] = int32(i)
		from[rt.Prefix.Bits]++
	}
	byAddr := func(i, j int32) int {
		return cmp.Compare(rf.Routes[i].Prefix.Addr.Uint32(), rf.Routes[j].Prefix.Addr.Uint32())
	}
	lo := int32(0)
	for _, hi := range from[:33] { // from[b] now ends the /b routes
		if !slices.IsSortedFunc(order[lo:hi], byAddr) {
			slices.SortStableFunc(order[lo:hi], byAddr)
		}
		lo = hi
	}
	t.order = order
	for j, i := range order {
		rt := &rf.Routes[i]
		nh, ok := t.idx[rt.NextHop]
		if !ok {
			*missing = append(*missing, rt.NextHop)
			nh = nhDrop
		}
		if j+1 == len(order) || rf.Routes[order[j+1]].Prefix != rt.Prefix {
			t.paint(col, rt.Prefix, nh)
		}
	}
	locals := rf.Locals
	if !slices.IsSortedFunc(locals, comparePrefix) {
		t.locals = append(t.locals[:0], locals...)
		slices.SortFunc(t.locals, comparePrefix)
		locals = t.locals
	}
	end := uint64(0) // past the last local painted
	for _, p := range locals {
		if lo, hi := p.Range(); lo >= end {
			t.paint(col, p, nhLocal)
			end = hi
		}
	}
}

// paint sets col to nh on every atom of p, whose endpoints are
// boundaries.
func (t *Timeline) paint(col []int32, p routing.Prefix, nh int32) {
	lo, hi := p.Range()
	first, _ := slices.BinarySearch(t.bounds, lo)
	a := first
	for ; a < len(col) && t.bounds[a] < hi; a++ {
		col[a] = nh
	}
	t.painted += a - first
}

// cycleAccumulator merges per-atom cycle sightings into Cycle values:
// the same membership seen on adjacent atoms extends a range, and
// ranges/prefix sets are finalised once the sweep completes.
type cycleAccumulator struct {
	bounds []uint64
	byKey  map[string]*cycleAcc
	order  []string // insertion order for deterministic output
}

type cycleAcc struct {
	routers []int32
	ranges  []AddrRange
}

func newCycleAccumulator(bounds []uint64) *cycleAccumulator {
	return &cycleAccumulator{bounds: bounds, byKey: make(map[string]*cycleAcc)}
}

// canonical copies a cycle (router indices in forwarding order) out of
// the walk path, rotated so the smallest index comes first.
func canonical(cycle []int32) []int32 {
	minAt := 0
	for i := 1; i < len(cycle); i++ {
		if cycle[i] < cycle[minAt] {
			minAt = i
		}
	}
	canon := make([]int32, 0, len(cycle))
	canon = append(canon, cycle[minAt:]...)
	return append(canon, cycle[:minAt]...)
}

// record notes that atom a forwards around the canonical cycle canon,
// which is kept, not copied.
func (ca *cycleAccumulator) record(a int, canon []int32) {
	var sb strings.Builder
	for _, r := range canon {
		fmt.Fprintf(&sb, "%d,", r)
	}
	key := sb.String()
	acc, ok := ca.byKey[key]
	if !ok {
		acc = &cycleAcc{routers: canon}
		ca.byKey[key] = acc
		ca.order = append(ca.order, key)
	}
	lo, hi := ca.bounds[a], ca.bounds[a+1]
	if n := len(acc.ranges); n > 0 && acc.ranges[n-1].hi == lo {
		acc.ranges[n-1].hi = hi
	} else {
		acc.ranges = append(acc.ranges, AddrRange{lo: lo, hi: hi})
	}
}

// finish materialises the accumulated cycles: names resolved, affected
// prefixes attached, deterministic order (first affected address, then
// membership).
func (ca *cycleAccumulator) finish(routers []RouterFIB) []Cycle {
	if len(ca.byKey) == 0 {
		return nil
	}
	out := make([]Cycle, 0, len(ca.byKey))
	for _, key := range ca.order {
		acc := ca.byKey[key]
		c := Cycle{
			Routers: make([]string, len(acc.routers)),
			Ranges:  acc.ranges,
		}
		for i, r := range acc.routers {
			c.Routers[i] = routers[r].Name
		}
		// Affected prefixes: entries in the cycle members' own FIBs —
		// the routes steering traffic around the loop — whose range
		// intersects the looping space. An ingress default route
		// elsewhere also reaches the loop, but it does not define it.
		c.Prefixes = memberPrefixes(routers, acc.routers, c.Ranges)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ranges[0].lo != b.Ranges[0].lo {
			return a.Ranges[0].lo < b.Ranges[0].lo
		}
		return strings.Join(a.Routers, ",") < strings.Join(b.Routers, ",")
	})
	return out
}

// memberPrefixes returns every distinct FIB prefix across the given
// members of routers that overlaps ranges (ascending and disjoint),
// sorted by first address then by length.
func memberPrefixes(routers []RouterFIB, members []int32, ranges []AddrRange) []routing.Prefix {
	var out []routing.Prefix
	for _, r := range members {
		for _, rt := range routers[r].Routes {
			// Only the first range that ends past lo can overlap.
			lo, hi := rt.Prefix.Range()
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].hi > lo })
			if i < len(ranges) && ranges[i].lo < hi {
				out = append(out, rt.Prefix)
			}
		}
	}
	slices.SortFunc(out, comparePrefix)
	return slices.Compact(out)
}
