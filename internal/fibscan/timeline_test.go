package fibscan

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"loopscope/internal/routing"
)

// Equal revisions prove nothing: a loop in the first snapshot and a
// healed table under the same revision stamps in the second must not be
// reported twice.
func TestTimelineHealedTableSameRevision(t *testing.T) {
	looped := mkSnap(t, 100,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", routes: map[string]string{"10.0.0.0/8": "a"}},
	)
	healed := mkSnap(t, 200,
		rspec{name: "a", routes: map[string]string{"10.0.0.0/8": "b"}},
		rspec{name: "b", locals: []string{"10.0.0.0/8"}},
	)
	for r := range healed.Routers {
		if healed.Routers[r].Revision != looped.Routers[r].Revision {
			t.Fatalf("router %d: revisions differ; the test needs them equal", r)
		}
	}
	reps := ScanTimeline([]Snapshot{*looped, *healed})
	if len(reps[0].Cycles) != 1 {
		t.Fatalf("first snapshot: %d cycles, want 1", len(reps[0].Cycles))
	}
	if len(reps[1].Cycles) != 0 {
		t.Errorf("healed table under an unchanged revision still reports %+v", reps[1].Cycles)
	}
}

// A file from a tool that writes no revision field reads as revision 0
// everywhere; every snapshot still gets its own report.
func TestTimelineWithoutRevisions(t *testing.T) {
	const file = `{"version":1,"snapshots":[
	 {"takenNs":1,"routers":[{"name":"a","routes":[{"prefix":"10.0.0.0/8","nextHop":"b"}]},
	                         {"name":"b","routes":[{"prefix":"10.0.0.0/8","nextHop":"a"}]}]},
	 {"takenNs":2,"routers":[{"name":"a","routes":[{"prefix":"10.0.0.0/8","nextHop":"b"}]},
	                         {"name":"b","routes":[],"locals":["10.0.0.0/8"]}]},
	 {"takenNs":3,"routers":[{"name":"a","routes":[{"prefix":"10.0.0.0/8","nextHop":"b"}]},
	                         {"name":"b","routes":[{"prefix":"10.0.0.0/8","nextHop":"a"}]}]}]}`
	f, err := decode(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, rep := range ScanTimeline(f.Snapshots) {
		got = append(got, len(rep.Cycles))
	}
	if want := []int{1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("cycles per snapshot %v, want %v", got, want)
	}
}

// mutator applies seeded edits to one snapshot, in place — the Timeline
// keeps its own copy of what it compares against, so reusing the value
// between steps must be safe.
type mutator struct {
	rng   *rand.Rand
	s     *Snapshot
	fresh int // counter behind never-seen-before names and prefixes
}

func (m *mutator) router() *RouterFIB { return &m.s.Routers[m.rng.Intn(len(m.s.Routers))] }

func (m *mutator) name() string { return m.router().Name }

// knownPrefix picks a prefix some table already holds (no new
// endpoints); newPrefix makes one nobody holds, nested at random depth
// so that it splits existing atoms.
func (m *mutator) knownPrefix() (routing.Prefix, bool) {
	for try := 0; try < 8; try++ {
		rf := m.router()
		if n := len(rf.Routes); n > 0 {
			return rf.Routes[m.rng.Intn(n)].Prefix, true
		}
	}
	return routing.Prefix{}, false
}

func (m *mutator) newPrefix() routing.Prefix {
	m.fresh++
	bits := []int{8, 12, 16, 20, 24, 28}[m.rng.Intn(6)]
	base := []string{"10.0.0.0", "16.0.0.0", "172.16.0.0"}[m.rng.Intn(3)]
	p := routing.MustParsePrefix(fmt.Sprintf("%s/%d", base, bits))
	lo, _ := p.Range()
	lo += uint64(m.fresh%200) << (32 - bits)
	return routing.MustParsePrefix(fmt.Sprintf("%d.%d.%d.%d/%d", byte(lo>>24), byte(lo>>16), byte(lo>>8), byte(lo), bits))
}

// mutate applies one edit and names it.
func (m *mutator) mutate() string {
	if len(m.s.Routers) == 0 {
		m.s.Routers = append(m.s.Routers, RouterFIB{Name: "r0"})
		return "refill"
	}
	rf := m.router()
	// Nine edits in ten touch tables only (0–8), so that the
	// incremental path has preconditions left to run on.
	op := m.rng.Intn(9)
	if m.rng.Intn(10) == 0 {
		op = 9 + m.rng.Intn(6)
	}
	switch op {
	case 0: // change a next hop
		if n := len(rf.Routes); n > 0 {
			rf.Routes[m.rng.Intn(n)].NextHop = m.name()
		}
		return "next hop"
	case 1: // add a route on endpoints the partition already has
		if p, ok := m.knownPrefix(); ok {
			rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: m.name()})
		}
		return "add route, known endpoints"
	case 2: // add a route that moves the partition
		rf.Routes = append(rf.Routes, Route{Prefix: m.newPrefix(), NextHop: m.name()})
		return "add route, new endpoints"
	case 3: // remove a route
		if n := len(rf.Routes); n > 0 {
			i := m.rng.Intn(n)
			rf.Routes = append(rf.Routes[:i:i], rf.Routes[i+1:]...)
		}
		return "remove route"
	case 4: // attach a local
		if p, ok := m.knownPrefix(); ok && m.rng.Intn(2) == 0 {
			rf.Locals = append(rf.Locals, p)
		} else {
			rf.Locals = append(rf.Locals, m.newPrefix())
		}
		return "attach local"
	case 5: // detach a local
		if n := len(rf.Locals); n > 0 {
			i := m.rng.Intn(n)
			rf.Locals = append(rf.Locals[:i:i], rf.Locals[i+1:]...)
		}
		return "detach local"
	case 9: // add a router
		m.fresh++
		m.s.Routers = append(m.s.Routers, RouterFIB{
			Name:   fmt.Sprintf("new%d", m.fresh),
			Routes: []Route{{Prefix: routing.MustParsePrefix("0.0.0.0/0"), NextHop: m.name()}},
		})
		return "add router"
	case 10: // remove a router; routes towards it now point nowhere
		i := m.rng.Intn(len(m.s.Routers))
		m.s.Routers = append(m.s.Routers[:i:i], m.s.Routers[i+1:]...)
		return "remove router"
	case 11: // reorder
		i, j := m.rng.Intn(len(m.s.Routers)), m.rng.Intn(len(m.s.Routers))
		m.s.Routers[i], m.s.Routers[j] = m.s.Routers[j], m.s.Routers[i]
		return "reorder"
	case 12: // rename
		m.fresh++
		rf.Name = fmt.Sprintf("renamed%d", m.fresh)
		return "rename"
	case 13: // duplicate a name
		rf.Name = m.name()
		return "duplicate name"
	case 14: // point at a router the snapshot lacks
		if n := len(rf.Routes); n > 0 {
			rf.Routes[m.rng.Intn(n)].NextHop = "ghost"
		}
		return "missing next hop"
	case 6: // swap two routes: same table, other order
		if n := len(rf.Routes); n > 1 {
			i, j := m.rng.Intn(n), m.rng.Intn(n)
			rf.Routes[i], rf.Routes[j] = rf.Routes[j], rf.Routes[i]
		}
		return "reorder routes"
	case 8: // repair: names unique again, every next hop present
		names := map[string]bool{}
		for i := range m.s.Routers {
			m.s.Routers[i].Name = fmt.Sprintf("r%d", i)
			names[m.s.Routers[i].Name] = true
		}
		for i := range m.s.Routers {
			for j := range m.s.Routers[i].Routes {
				if nh := &m.s.Routers[i].Routes[j].NextHop; !names[*nh] {
					*nh = m.name()
				}
			}
		}
		return "repair"
	default:
		return "unchanged"
	}
}

// randomTables builds a handful of routers over a small pool of nested
// prefixes, dense enough that random next hops close cycles.
func randomTables(rng *rand.Rand) Snapshot {
	pool := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16", "172.16.0.0/12", "172.16.40.0/24"}
	n := 3 + rng.Intn(4)
	var s Snapshot
	for r := 0; r < n; r++ {
		rf := RouterFIB{Name: fmt.Sprintf("r%d", r)}
		for _, p := range pool {
			switch rng.Intn(4) {
			case 0, 1:
				rf.Routes = append(rf.Routes, Route{Prefix: routing.MustParsePrefix(p), NextHop: fmt.Sprintf("r%d", rng.Intn(n))})
			case 2:
				if rng.Intn(3) == 0 {
					rf.Locals = append(rf.Locals, routing.MustParsePrefix(p))
				}
			}
		}
		s.Routers = append(s.Routers, rf)
	}
	return s
}

// loopedPrefixes collects the affected prefixes of every cycle, sorted.
func loopedPrefixes(rep *Report) []string {
	set := map[string]bool{}
	for _, c := range rep.Cycles {
		for _, p := range c.Prefixes {
			set[p.String()] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestTimelineMatchesFreshScan is the differential the incremental
// step rests on: over seeded timelines of mutating snapshots, every
// Step must return exactly what a Timeline that has seen nothing
// returns for the same snapshot — cycles, atoms and warnings.
func TestTimelineMatchesFreshScan(t *testing.T) {
	const timelines, steps = 240, 14
	partial, full := 0, 0
	for seed := int64(0); seed < timelines; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		step := func(s *Snapshot, what string) *Report {
			t.Helper()
			before := tl.rewalked
			got := tl.Step(s)
			want := new(Timeline).Step(s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, after %q:\nstep  %+v\nfresh %+v", seed, what, got, want)
			}
			if len(s.Routers) > 0 {
				checkSweep(t, &tl, fmt.Sprintf("seed %d, after %q", seed, what))
			}
			if walked := tl.rewalked - before; walked < got.Atoms {
				partial++
			} else {
				full++
			}
			return got
		}

		var snap Snapshot
		if seed%2 == 0 {
			// The generator's own timeline first: loop counts coming
			// and going, each snapshot reporting exactly what was
			// injected.
			routers, prefixes := 4+rng.Intn(30), 10+rng.Intn(50)
			for i := 0; i < 4; i++ {
				var looped []routing.Prefix
				snap, looped = Synthetic(routers, prefixes, rng.Intn(6))
				snap.TakenNs = int64(i)
				want := make([]string, 0, len(looped))
				for _, p := range looped {
					want = append(want, p.String())
				}
				sort.Strings(want)
				if got := loopedPrefixes(step(&snap, "synthetic")); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, synthetic %d: looped %v, injected %v", seed, i, got, want)
				}
			}
		} else {
			snap = randomTables(rng)
			step(&snap, "random tables")
		}

		m := &mutator{rng: rng, s: &snap}
		for i := 0; i < steps; i++ {
			snap.TakenNs++
			if rng.Intn(12) == 0 {
				step(&Snapshot{TakenNs: snap.TakenNs}, "empty snapshot")
				continue
			}
			var what []string
			for n := rng.Intn(3); n >= 0; n-- {
				what = append(what, m.mutate())
			}
			step(&snap, strings.Join(what, " + "))
		}
	}
	t.Logf("%d steps re-walked part of the atoms, %d all of them", partial, full)
	if partial < 3*timelines {
		t.Errorf("only %d steps took the incremental path; the test no longer exercises it", partial)
	}
}

// changedColumns counts the atoms on which some router forwards
// differently in b than in a, from two independent fresh scans; every
// atom when the partitions differ.
func changedColumns(a, b *Snapshot) int {
	var ta, tb Timeline
	ta.Step(a)
	tb.Step(b)
	atoms := len(tb.bounds) - 1
	if !reflect.DeepEqual(ta.bounds, tb.bounds) || len(ta.runs) != len(tb.runs) {
		return atoms
	}
	n := 0
	for at := 0; at < atoms; at++ {
		for r := 0; r < len(b.Routers); r++ {
			if decision(&ta, r, at) != decision(&tb, r, at) {
				n++
				break
			}
		}
	}
	return n
}

// decision is router r's next hop on atom a, read off its runs.
func decision(t *Timeline, r, a int) int32 {
	runs := t.runs[r]
	i := sort.Search(len(runs), func(i int) bool { return int(runs[i].start) > a })
	return runs[i-1].nh
}

// TestTimelineAllocationBudget: a long timeline costs what its changes
// cost. Through Reader and Step, the live heap after 32 snapshots is
// what it was after 8; encoding/json sees the first snapshot's routers
// and then only routers whose tables moved; and the walk visits only
// atoms where some router's decision moved.
func TestTimelineAllocationBudget(t *testing.T) {
	const routers, prefixes, snapshots = 200, 1000, 32
	loops := func(i int) int { return []int{8, 8, 20, 20}[i%4] } // every other capture a heartbeat
	counts := make([]int, snapshots)
	for i := range counts {
		counts[i] = loops(i)
	}
	file := encodedTimeline(t, routers, prefixes, counts...)

	first, _ := Synthetic(routers, prefixes, loops(0))
	other, _ := Synthetic(routers, prefixes, loops(2))
	moved := 0
	for r := range first.Routers {
		if !sameTable(&first.Routers[r], &other.Routers[r]) {
			moved++
		}
	}
	changes := snapshots/2 - 1
	wantDecoded := routers + changes*moved

	rd := NewReader(bytes.NewReader(file))
	var tl Timeline
	var at8, at32 uint64
	totalAtoms := 0
	i := 0
	if err := rd.Each(func(s *Snapshot) error {
		totalAtoms = tl.Step(s).Atoms
		switch i++; i {
		case 8:
			at8 = liveHeap()
		case snapshots:
			at32 = liveHeap()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap %d KiB after 8 snapshots, %d KiB after %d", at8>>10, at32>>10, snapshots)
	if at32 > at8+at8/10 {
		t.Errorf("live heap grew from %d to %d bytes between snapshot 8 and %d", at8, at32, snapshots)
	}
	if rd.decoded != wantDecoded {
		t.Errorf("encoding/json decoded %d routers, want %d (first snapshot's %d + %d changes × %d)",
			rd.decoded, wantDecoded, routers, changes, moved)
	}
	dirty := changedColumns(&first, &other)
	if back := changedColumns(&other, &first); back != dirty {
		t.Fatalf("changed columns %d one way, %d the other", dirty, back)
	}
	budget := totalAtoms + changes*dirty
	t.Logf("decoded %d routers; walked %d atoms of %d × %d, budget %d", rd.decoded, tl.rewalked, snapshots, totalAtoms, budget)
	if dirty == 0 || dirty >= totalAtoms/4 {
		t.Fatalf("%d of %d atoms change between the two tables; the budget would prove nothing", dirty, totalAtoms)
	}
	if tl.rewalked > budget {
		t.Errorf("walked %d atoms, budget %d (all %d once + %d changes × %d changed columns)",
			tl.rewalked, budget, totalAtoms, changes, dirty)
	}
	// Next hops change and prefixes move between locals and routes, so
	// no router's endpoints move: the first step's boundaries serve all.
	if tl.collected != 1 {
		t.Errorf("collected the atom boundaries %d times, want once", tl.collected)
	}
}

// TestFirstSweepVisitsRunStarts pins the walk's cost on the bench
// timeline's first snapshot: each router once on atom 0, then a few
// routers per run that starts on a later atom, not atoms × routers
// (4.0 M visits when every atom was walked from every router).
func TestFirstSweepVisitsRunStarts(t *testing.T) {
	snap, _ := Synthetic(1000, 4000, 8)
	var tl Timeline
	rep := tl.Step(&snap)
	starts := 0
	for _, runs := range tl.runs {
		starts += len(runs) - 1
	}
	if rep.Atoms != 4002 || starts+len(tl.runs) != 13009 {
		t.Fatalf("%d atoms and %d runs; the budget was set on 4002 and 13009", rep.Atoms, starts+len(tl.runs))
	}
	budget := len(snap.Routers) + 4*starts
	t.Logf("visited %d routers: %d routers, %d run starts after atom 0, budget %d", tl.visited, len(snap.Routers), starts, budget)
	if tl.visited > budget {
		t.Errorf("visited %d routers, budget %d (routers + 4 × run starts)", tl.visited, budget)
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTimelineHeapAllocationBudget: what a Timeline keeps grows with
// the tables, not with routers × atoms. Two hubs with full tables and
// 1,998 spokes holding one default route each: 2,000 routers, 5,998
// entries, 2,002 atoms. Measured after one Step: 68 B per entry, atom
// and router (662 KiB) with one run-length column per router, against
// 1,656 B (15.8 MiB) with the router × atom matrix it replaced.
func TestTimelineHeapAllocationBudget(t *testing.T) {
	const budget = 128 // bytes per entry, atom and router
	snap, _ := Synthetic(200, 2000, 8)
	for sp := 198; sp < 1998; sp++ {
		snap.Routers = append(snap.Routers, RouterFIB{
			Name:   fmt.Sprintf("spoke%d", sp),
			Routes: []Route{{Prefix: routing.MustParsePrefix("0.0.0.0/0"), NextHop: fmt.Sprintf("hub%d", sp%2)}},
		})
	}
	entries := 0
	for _, rf := range snap.Routers {
		entries += len(rf.Routes) + len(rf.Locals)
	}
	before := liveHeap()
	tl := new(Timeline)
	rep := tl.Step(&snap)
	if len(rep.Warnings) != 0 || len(rep.Cycles) != 1 || len(rep.Cycles[0].Ranges) != 8 {
		t.Fatalf("cycles %+v, warnings %v; want the two hubs looping on the 8 injected ranges", rep.Cycles, rep.Warnings)
	}
	kept := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(tl)
	units := entries + len(tl.dirty) + len(snap.Routers)
	t.Logf("Timeline keeps %d KiB: %.0f B per entry, atom and router (%d entries, %d atoms, %d routers)",
		kept>>10, float64(kept)/float64(units), entries, len(tl.dirty), len(snap.Routers))
	if kept > int64(budget*units) {
		t.Errorf("Timeline keeps %d bytes, budget %d B × %d entries, atoms and routers", kept, budget, units)
	}
}

// FuzzTimelineMatchesScan holds the incremental Step against a fresh
// Scan on arbitrary small tables (see fuzzTimeline).
func FuzzTimelineMatchesScan(f *testing.F) {
	fuzzTimeline(f, func(t *testing.T, step int64, tl *Timeline, s *Snapshot) {
		if got, want := tl.Step(s), Scan(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d over %+v:\nstep  %+v\nfresh %+v", step, s.Routers, got, want)
		}
	})
}

// FuzzSweepMatchesFullWalk holds the walk, which derives each atom's
// cycles from the atom before, against fullWalk on the same runs, on
// the tables of FuzzTimelineMatchesScan. Step against Scan cannot do
// that: both walk the same way.
func FuzzSweepMatchesFullWalk(f *testing.F) {
	fuzzTimeline(f, func(t *testing.T, step int64, tl *Timeline, s *Snapshot) {
		tl.Step(s)
		if len(s.Routers) > 0 {
			checkSweep(t, tl, fmt.Sprintf("step %d over %+v", step, s.Routers))
		}
	})
}

// fullWalk is the reference for Timeline.walk: every atom's graph
// walked from every router, decisions read off the runs. Each atom's
// cycles come out canonical and sorted.
func fullWalk(tl *Timeline) [][][]int32 {
	out := make([][][]int32, len(tl.bounds)-1)
	for a := range out {
		seen := make([]bool, len(tl.runs))
		for start := range tl.runs {
			onPath := map[int32]int{}
			var path []int32
			for cur := int32(start); cur >= 0 && !seen[cur]; cur = decision(tl, int(cur), a) {
				if i, ok := onPath[cur]; ok {
					out[a] = append(out[a], canonical(path[i:]))
					break
				}
				onPath[cur] = len(path)
				path = append(path, cur)
			}
			for _, r := range path {
				seen[r] = true
			}
		}
		slices.SortFunc(out[a], slices.Compare)
	}
	return out
}

// checkSweep fails t unless every atom's cycles, as the last Step left
// them, are fullWalk's.
func checkSweep(t *testing.T, tl *Timeline, what string) {
	t.Helper()
	for a, want := range fullWalk(tl) {
		got := slices.Clone(tl.cycles[a])
		slices.SortFunc(got, slices.Compare)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: atom %d [%#x, %#x) holds cycles %v, a full walk %v", what, a, tl.bounds[a], tl.bounds[a+1], got, want)
		}
	}
}

// fuzzTimeline runs check on each snapshot of a short run decoded from
// the fuzz input, through one Timeline: arbitrary small tables of up to
// 6 routers over 8 overlapping prefixes (0.0.0.0/0 among them), with
// locals, next hops outside the snapshot, repeated names and empty
// snapshots.
func fuzzTimeline(f *testing.F, check func(t *testing.T, step int64, tl *Timeline, s *Snapshot)) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0x01, 1, 0, 0x01, 0, 0, 2, 0, 0x01, 1, 0, 0x00, 0x01})
	f.Add([]byte{3, 0, 0x05, 1, 2, 0x10, 0, 0x06, 2, 0, 0x03, 0x00, 0x01, 0x80, 2, 0x81, 0x04,
		3, 0, 0x05, 1, 2, 0x10, 0, 0x86, 2, 0, 1, 6, 0x08, 0, 0x00, 0x80, 0x01, 0x00,
		0, 3, 0, 0x05, 1, 3, 0x00, 0, 0x06, 2, 0, 0x03, 0x00, 0x01, 0x80, 2, 0x81, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		pool := []routing.Prefix{
			routing.MustParsePrefix("0.0.0.0/0"), routing.MustParsePrefix("0.0.0.0/1"),
			routing.MustParsePrefix("10.0.0.0/8"), routing.MustParsePrefix("10.0.0.0/9"),
			routing.MustParsePrefix("10.1.0.0/16"), routing.MustParsePrefix("10.1.2.0/24"),
			routing.MustParsePrefix("10.128.0.0/9"), routing.MustParsePrefix("172.16.0.0/12"),
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Names r0–r5 exist when that many routers do; r6 and r7 never.
		name := func(b byte) string { return fmt.Sprintf("r%d", b%8) }
		var tl Timeline
		for step := int64(0); len(data) > 0 && step < 8; step++ {
			// Per snapshot: a router count (0 is an empty snapshot); per
			// router a name byte (high bit set: a name of its own
			// choosing, repeats included), a route mask over the pool
			// with one next-hop byte per route, and a local mask.
			s := Snapshot{TakenNs: step}
			for r, n := 0, int(next()%7); r < n; r++ {
				rf := RouterFIB{Name: name(byte(r))}
				if b := next(); b&0x80 != 0 {
					rf.Name = name(b)
				}
				routes := next()
				for i, p := range pool {
					if routes>>i&1 != 0 {
						rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: name(next())})
					}
				}
				locals := next()
				for i, p := range pool {
					if locals>>i&1 != 0 {
						rf.Locals = append(rf.Locals, p)
					}
				}
				s.Routers = append(s.Routers, rf)
			}
			check(t, step, &tl, &s)
		}
	})
}

// TestStepAllocationBudget: a Step allocates next to nothing per
// changed route or local, across steps that heal and break the stale
// loops of a Synthetic timeline (two hubs of 2,000 entries each change
// per step). Measured: 3.7 B per changed entry, the walk's per-router
// arrays and the report; 140 B while each changed router's table was
// built as a trie and each cycle's prefixes gathered in a map.
func TestStepAllocationBudget(t *testing.T) {
	const budget = 16 // bytes per changed route or local
	snaps := [2]Snapshot{}
	snaps[0], _ = Synthetic(400, 2000, 8)
	snaps[1], _ = Synthetic(400, 2000, 20)
	perCycle := 0 // entries of the routers one heal and one break change
	for r := range snaps[0].Routers {
		a, b := &snaps[0].Routers[r], &snaps[1].Routers[r]
		if !sameTable(a, b) {
			perCycle += len(a.Routes) + len(a.Locals) + len(b.Routes) + len(b.Locals)
		}
	}
	var tl Timeline
	tl.Step(&snaps[0])
	tl.Step(&snaps[1]) // every buffer at its size
	const cycles = 8
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 2*cycles; i++ {
		tl.Step(&snaps[i%2])
	}
	runtime.ReadMemStats(&ms)
	per := float64(ms.TotalAlloc-before) / float64(cycles*perCycle)
	t.Logf("%.1f B per changed route or local (%d per heal and break)", per, perCycle)
	if per > budget {
		t.Errorf("%.1f B per changed route or local, budget %d", per, budget)
	}
}
