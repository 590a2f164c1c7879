package fibscan

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// prefixSeed spells a prefix as the five fuzz bytes fuzzPrefix reads.
func prefixSeed(s string) []byte {
	p := routing.MustParsePrefix(s)
	return append([]byte{byte(p.Bits)}, p.Addr[:]...)
}

// fuzzPrefix reads a length byte and four address bytes.
func fuzzPrefix(next func() byte) routing.Prefix {
	bits := int(next() % 33)
	return routing.NewPrefix(packet.Addr{next(), next(), next(), next()}, bits)
}

// fillSeed encodes routers for FuzzFillRouterMatchesLookup, each as
// "prefix>hop … | local …"; a router is named by its position.
func fillSeed(routers ...string) []byte {
	data := []byte{byte(len(routers) - 1)}
	for _, spec := range routers {
		routes, locals, _ := strings.Cut(spec, "|")
		data = append(data, 0, byte(len(strings.Fields(routes))))
		for _, rt := range strings.Fields(routes) {
			p, hop, _ := strings.Cut(rt, ">r")
			data = append(append(data, prefixSeed(p)...), hop[0]-'0')
		}
		data = append(data, byte(len(strings.Fields(locals))))
		for _, p := range strings.Fields(locals) {
			data = append(data, prefixSeed(p)...)
		}
	}
	return data
}

// FuzzFillRouterMatchesLookup holds fillRouter's painting against the
// trie: on arbitrary tables (any order, a prefix repeated with other
// next hops, next hops outside the snapshot, locals over routes), each
// atom's decision is routing.Table.Lookup's at the atom's first and
// last address, with locals winning, and the hops reported missing are
// those of the routes whose next hop no router is named.
func FuzzFillRouterMatchesLookup(f *testing.F) {
	f.Add(fillSeed(""))             // empty
	f.Add(fillSeed("0.0.0.0/0>r0")) // default only
	f.Add(fillSeed("10.0.0.0/8>r1 10.64.0.0/16>r2 10.64.128.0/24>r0", "", ""))
	f.Add(fillSeed("10.64.128.0/24>r0 10.64.0.0/16>r2 10.0.0.0/8>r1", "", ""))        // nested, longest first
	f.Add(fillSeed("192.168.0.0/24>r0 192.168.1.0/24>r1", ""))                        // adjacent
	f.Add(fillSeed("203.0.113.7/32>r1 0.0.0.0/0>r0", ""))                             // host route
	f.Add(fillSeed("10.0.0.0/8>r1 10.0.0.0/8>r7 10.0.0.0/8>r0 10.0.0.0/9>r5", ""))    // repeated, missing
	f.Add(fillSeed("0.0.0.0/0>r1 10.1.0.0/16>r0 | 10.0.0.0/8 10.1.2.0/24", ""))       // locals over routes
	f.Add(fillSeed("10.0.0.0/8>r1 11.0.0.0/8>r2 10.0.0.0/8>r0 9.0.0.0/8>r7", "", "")) // repeated, apart
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Up to 4 routers, r0–r3; a name byte with its high bit set
		// names one of r0–r7, repeats and strangers included.
		var s Snapshot
		for r, n := 0, int(next()%4)+1; r < n; r++ {
			rf := RouterFIB{Name: fmt.Sprintf("r%d", r)}
			if b := next(); b&0x80 != 0 {
				rf.Name = fmt.Sprintf("r%d", b%8)
			}
			for i := next() % 8; i > 0; i-- {
				rf.Routes = append(rf.Routes, Route{Prefix: fuzzPrefix(next), NextHop: fmt.Sprintf("r%d", next()%8)})
			}
			for i := next() % 4; i > 0; i-- {
				rf.Locals = append(rf.Locals, fuzzPrefix(next))
			}
			s.Routers = append(s.Routers, rf)
		}
		tl := Timeline{idx: map[string]int32{}, bounds: collectBounds(&s)}
		for i, rf := range s.Routers {
			if _, dup := tl.idx[rf.Name]; !dup {
				tl.idx[rf.Name] = int32(i)
			}
		}
		for r := range s.Routers {
			rf := &s.Routers[r]
			tab := routing.NewTable[int32]()
			var wantMissing []string
			for _, rt := range rf.Routes {
				nh, ok := tl.idx[rt.NextHop]
				if !ok {
					wantMissing = append(wantMissing, rt.NextHop)
					nh = nhDrop
				}
				tab.Insert(rt.Prefix, nh)
			}
			col := make([]int32, len(tl.bounds)-1)
			for a := range col {
				col[a] = nhDrop
			}
			var missing []string
			tl.fillRouter(rf, col, &missing)
			for a, got := range col {
				for _, at := range []uint64{tl.bounds[a], tl.bounds[a+1] - 1} {
					addr := packet.AddrFromUint32(uint32(at))
					want, _, ok := tab.Lookup(addr)
					if !ok {
						want = nhDrop
					}
					if slices.ContainsFunc(rf.Locals, func(p routing.Prefix) bool { return p.Contains(addr) }) {
						want = nhLocal
					}
					if got != want {
						t.Fatalf("%s, atom %d at %v: painted %d, Lookup %d (routes %v, locals %v)", rf.Name, a, addr, got, want, rf.Routes, rf.Locals)
					}
				}
			}
			slices.Sort(missing)
			slices.Sort(wantMissing)
			if !slices.Equal(missing, wantMissing) {
				t.Fatalf("%s: missing %v, want %v", rf.Name, missing, wantMissing)
			}
		}
	})
}

// sameEndsPool is what FuzzSameEndsMatchesSortedSets draws prefixes
// from: nested, with a /23 beside its two /24s.
var sameEndsPool = []routing.Prefix{
	routing.MustParsePrefix("0.0.0.0/0"), routing.MustParsePrefix("10.0.0.0/8"),
	routing.MustParsePrefix("10.1.0.0/16"), routing.MustParsePrefix("10.1.2.0/23"),
	routing.MustParsePrefix("10.1.2.0/24"), routing.MustParsePrefix("10.1.3.0/24"),
	routing.MustParsePrefix("10.1.2.128/25"), routing.MustParsePrefix("172.16.0.0/12"),
}

// endsSeed encodes two tables for FuzzSameEndsMatchesSortedSets, each
// as routes then locals, by index into sameEndsPool.
func endsSeed(tables ...[]byte) []byte {
	var data []byte
	for _, list := range tables {
		data = append(append(data, byte(len(list))), list...)
	}
	return data
}

// FuzzSameEndsMatchesSortedSets holds sameEnds, whose merge skips the
// sort when two tables hold the same prefixes in the same order,
// against comparing the sorted endpoint sets, on arbitrary pairs of
// tables over sameEndsPool.
func FuzzSameEndsMatchesSortedSets(f *testing.F) {
	f.Add(endsSeed([]byte{1, 2, 4}, nil, []byte{1, 2, 4}, nil))       // next hops only
	f.Add(endsSeed([]byte{1, 2}, []byte{4}, []byte{1, 4}, []byte{2})) // moved to locals
	f.Add(endsSeed([]byte{4, 1, 2}, nil, []byte{1, 2, 4}, nil))       // out of order
	f.Add(endsSeed([]byte{1, 1, 2}, nil, []byte{1, 2, 2}, nil))       // repeated
	f.Add(endsSeed([]byte{1, 1}, []byte{1}, []byte{1}, nil))          // repeated, shorter
	f.Add(endsSeed([]byte{3}, nil, []byte{4, 5}, nil))                // /23 against its /24s
	f.Add(endsSeed([]byte{3, 4}, nil, []byte{4}, []byte{5}))          // same ends, other prefixes
	f.Add(endsSeed([]byte{0, 1}, []byte{2}, []byte{0, 1}, []byte{6})) // locals differ
	f.Add(endsSeed([]byte{0}, []byte{7, 2}, []byte{0}, []byte{2, 7})) // locals out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var tabs [2]RouterFIB
		for i := range tabs {
			for n := next() % 8; n > 0; n-- {
				tabs[i].Routes = append(tabs[i].Routes, Route{Prefix: sameEndsPool[next()%8], NextHop: "r0"})
			}
			for n := next() % 8; n > 0; n-- {
				tabs[i].Locals = append(tabs[i].Locals, sameEndsPool[next()%8])
			}
		}
		a, b := &tabs[0], &tabs[1]
		want := slices.Equal(sortedSet(appendEnds(nil, a)), sortedSet(appendEnds(nil, b)))
		if got := new(Timeline).sameEnds(a, b); got != want {
			t.Fatalf("sameEnds(%v %v, %v %v) = %v, sorted sets say %v", a.Routes, a.Locals, b.Routes, b.Locals, got, want)
		}
	})
}

// TestRepeatedPrefixPaintsOnce: a prefix given many times, its copies
// apart in the table, paints its atoms once, so painting a table costs
// at most one pass over the atoms per prefix length, whatever it
// repeats. Locals, repeated or nested in one another, paint each atom
// at most once.
func TestRepeatedPrefixPaintsOnce(t *testing.T) {
	extra := []Route{
		{Prefix: routing.MustParsePrefix("0.0.0.0/0"), NextHop: "hub1"},
		{Prefix: routing.MustParsePrefix("17.0.0.0/8"), NextHop: "hub1"},
		{Prefix: routing.MustParsePrefix("16.0.0.0/8"), NextHop: "spoke0"},
	}
	locals := []routing.Prefix{
		routing.MustParsePrefix("18.1.0.0/16"),
		routing.MustParsePrefix("18.0.0.0/8"),
		routing.MustParsePrefix("18.1.2.0/24"),
	}
	painted := func(copies int) (int, *Report) {
		s, _ := Synthetic(200, 1000, 4)
		for i := 0; i < copies; i++ {
			s.Routers[0].Routes = append(s.Routers[0].Routes, extra...)
			s.Routers[0].Locals = append(s.Routers[0].Locals, locals...)
		}
		var tl Timeline
		rep := tl.Step(&s)
		return tl.painted, rep
	}
	once, want := painted(1)
	many, got := painted(300)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("300 copies report %+v, one copy %+v", got, want)
	}
	if many != once {
		t.Errorf("painted %d atoms with 300 copies of %d routes and %d locals, %d with one", many, len(extra), len(locals), once)
	}
}
