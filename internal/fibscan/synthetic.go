package fibscan

import (
	"fmt"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// Synthetic generates a deterministic hub-and-spoke test topology for
// benchmarks and CLI tests: max(2, routers/100) full-table hub routers
// in a ring (every hub carries a route for every prefix, towards the
// prefix owner's hub by the shorter ring direction), with the
// remaining routers as spokes holding a single default route to their
// hub. Prefix i is a /24 owned by hub i mod hubs and delivered locally
// there.
//
// loops injects that many stale-convergence loops: an evenly spread
// subset of prefixes loses its local attachment and the owner and its
// ring successor point at each other for that prefix — the two-router
// cycle an interrupted FIB update leaves behind. The affected prefixes
// are returned so tests can assert exact recall.
func Synthetic(routers, prefixes, loops int) (Snapshot, []routing.Prefix) {
	if routers < 2 {
		panic("fibscan: Synthetic needs at least 2 routers")
	}
	if loops > prefixes {
		loops = prefixes
	}
	hubs := routers / 100
	if hubs < 2 {
		hubs = 2
	}
	if hubs > routers {
		hubs = routers
	}

	// Prefix i is 16.x.y.0/24 with x.y the big-endian index.
	prefixAt := func(i int) routing.Prefix {
		return routing.NewPrefix(packet.AddrFromUint32(0x10000000|uint32(i)<<8), 24)
	}
	// Looped prefixes, spread evenly.
	looped := make([]bool, prefixes)
	var loopedPrefixes []routing.Prefix
	for j := 0; j < loops; j++ {
		i := j * prefixes / loops
		looped[i] = true
		loopedPrefixes = append(loopedPrefixes, prefixAt(i))
	}

	hubNames := make([]string, hubs)
	for h := range hubNames {
		hubNames[h] = fmt.Sprintf("hub%d", h)
	}
	// Shorter ring direction from hub h towards hub o.
	ringNext := func(h, o int) int {
		fwd := (o - h + hubs) % hubs
		if fwd <= hubs-fwd {
			return (h + 1) % hubs
		}
		return (h - 1 + hubs) % hubs
	}

	s := Snapshot{Routers: make([]RouterFIB, 0, routers)}
	for h := 0; h < hubs; h++ {
		rf := RouterFIB{Name: hubNames[h], Revision: 1, Routes: make([]Route, 0, prefixes)}
		for i := 0; i < prefixes; i++ {
			p := prefixAt(i)
			owner := i % hubs
			switch {
			case looped[i]:
				// Stale pair: owner and successor bounce the prefix;
				// everyone else still converges towards the owner.
				succ := (owner + 1) % hubs
				switch h {
				case owner:
					rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: hubNames[succ]})
				case succ:
					rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: hubNames[owner]})
				default:
					rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: hubNames[ringNext(h, owner)]})
				}
			case h == owner:
				rf.Locals = append(rf.Locals, p)
			default:
				rf.Routes = append(rf.Routes, Route{Prefix: p, NextHop: hubNames[ringNext(h, owner)]})
			}
		}
		s.Routers = append(s.Routers, rf)
	}
	for sp := hubs; sp < routers; sp++ {
		s.Routers = append(s.Routers, RouterFIB{
			Name:     fmt.Sprintf("spoke%d", sp-hubs),
			Revision: 1,
			Routes: []Route{{
				Prefix:  routing.MustParsePrefix("0.0.0.0/0"),
				NextHop: hubNames[(sp-hubs)%hubs],
			}},
		})
	}
	return s, loopedPrefixes
}
