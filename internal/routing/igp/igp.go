// Package igp implements a link-state interior gateway protocol in the
// style of IS-IS/OSPF, operating on a netsim.Network: link-state
// advertisement (LSA) origination and flooding, Dijkstra shortest-path
// computation, and FIB installation.
//
// Every stage of the convergence pipeline — failure detection (owned
// by the link), flood propagation per hop, the SPF hold-down timer,
// SPF computation and the FIB update — has a configurable delay with
// jitter. The paper (§II-B) attributes transient loops exactly to the
// skew between neighboring routers' progress through this pipeline;
// making each stage explicit lets experiments dial loop durations from
// milliseconds to the 5–10 s convergence the paper cites from
// contemporaneous work.
package igp

import (
	"time"

	"loopscope/internal/events"
	"loopscope/internal/netsim"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// Config sets the convergence-pipeline timing. Each delay is drawn
// uniformly from [Min, Max] every time it is needed, so different
// routers make progress at different speeds.
type Config struct {
	// FloodHop is the per-hop LSA propagation + processing delay.
	FloodHop jittered
	// SPFHold is the hold-down between receiving new topology and
	// starting the SPF computation.
	SPFHold jittered
	// SPFCompute is the time the shortest-path computation takes.
	SPFCompute jittered
	// FIBUpdate is the time from SPF completion to the forwarding
	// table actually changing. Skew in this stage is the dominant
	// cause of transient loops.
	FIBUpdate jittered
}

// jittered re-exports routing.Jittered for configuration brevity.
type jittered = routing.Jittered

// Fixed returns a zero-width range.
func Fixed(d time.Duration) jittered { return routing.Fixed(d) }

// Range returns the range [min, max].
func Range(min, max time.Duration) jittered { return routing.Range(min, max) }

// DefaultConfig approximates a tuned early-2000s ISIS deployment:
// link-state convergence in single-digit seconds.
func DefaultConfig() Config {
	return Config{
		FloodHop:   Range(10*time.Millisecond, 40*time.Millisecond),
		SPFHold:    Range(200*time.Millisecond, 1500*time.Millisecond),
		SPFCompute: Range(20*time.Millisecond, 120*time.Millisecond),
		FIBUpdate:  Range(100*time.Millisecond, 2500*time.Millisecond),
	}
}

// lsa is one router's link-state advertisement.
type lsa struct {
	origin    netsim.NodeID
	seq       uint64
	neighbors map[netsim.NodeID]int // neighbor -> cost
	prefixes  []routing.Prefix
}

func (l *lsa) clone() *lsa {
	n := &lsa{origin: l.origin, seq: l.seq, prefixes: l.prefixes,
		neighbors: make(map[netsim.NodeID]int, len(l.neighbors))}
	for k, v := range l.neighbors {
		n.neighbors[k] = v
	}
	return n
}

// Protocol is one IGP domain attached to a network.
type Protocol struct {
	net      *netsim.Network
	cfg      Config
	rng      *stats.RNG
	speakers map[netsim.NodeID]*speaker
	// SPFRuns counts SPF computations across all routers, for
	// convergence-cost reporting.
	SPFRuns int
}

// speaker is the per-router protocol instance.
type speaker struct {
	p            *Protocol
	r            *netsim.Router
	lsdb         map[netsim.NodeID]*lsa
	spfScheduled bool
	// installed is the route set currently programmed in the FIB,
	// used to diff against newly computed routes.
	installed map[routing.Prefix]netsim.NodeID
	// gen is bumped whenever a newer SPF outcome supersedes a pending
	// FIB installation.
	gen uint64
}

// Attach creates an IGP domain over every router in the network. Call
// Start to converge the initial topology instantly.
func Attach(net *netsim.Network, cfg Config, rng *stats.RNG) *Protocol {
	p := &Protocol{
		net:      net,
		cfg:      cfg,
		rng:      rng,
		speakers: make(map[netsim.NodeID]*speaker),
	}
	for _, r := range net.Routers() {
		s := &speaker{
			p:         p,
			r:         r,
			lsdb:      make(map[netsim.NodeID]*lsa),
			installed: make(map[routing.Prefix]netsim.NodeID),
		}
		p.speakers[r.ID] = s
		r.OnLinkDown(s.linkDown)
		r.OnLinkUp(s.linkUp)
	}
	return p
}

// Start seeds every LSDB with the full current topology and installs
// converged routes at the current instant, as if the network had been
// up forever.
func (p *Protocol) Start() {
	// Build one LSA per router from live topology.
	for _, r := range p.net.Routers() {
		l := &lsa{origin: r.ID, seq: 1, neighbors: make(map[netsim.NodeID]int)}
		for _, link := range r.Links() {
			if link.Up() {
				l.neighbors[link.To.ID] = link.IGPCost
			}
		}
		l.prefixes = r.LocalPrefixes()
		for _, s := range p.speakers {
			s.lsdb[r.ID] = l.clone()
		}
	}
	for _, r := range p.net.Routers() {
		s := p.speakers[r.ID]
		routes := s.computeRoutes()
		s.install(routes)
	}
}

// linkDown reacts to a detected failure of an attached link:
// re-originate our LSA without that adjacency and flood it.
func (s *speaker) linkDown(l *netsim.Link) {
	s.reoriginate()
}

// linkUp reacts to an attached link coming back.
func (s *speaker) linkUp(l *netsim.Link) {
	s.reoriginate()
}

// reoriginate rebuilds this router's own LSA from live interface state
// and floods it.
func (s *speaker) reoriginate() {
	old := s.lsdb[s.r.ID]
	var seq uint64 = 1
	if old != nil {
		seq = old.seq + 1
	}
	l := &lsa{origin: s.r.ID, seq: seq, neighbors: make(map[netsim.NodeID]int)}
	for _, link := range s.r.Links() {
		if link.Up() {
			l.neighbors[link.To.ID] = link.IGPCost
		}
	}
	l.prefixes = s.r.LocalPrefixes()
	s.lsdb[s.r.ID] = l
	s.p.net.Journal.Append(events.Event{
		At: s.p.net.Sim.Now(), Kind: events.LSAOriginated, Node: s.r.Name,
	})
	s.scheduleSPF()
	s.flood(l, -1)
}

// flood sends an LSA to every neighbor except the one it came from,
// over links that are currently up.
func (s *speaker) flood(l *lsa, except netsim.NodeID) {
	for _, link := range s.r.Links() {
		if !link.Up() || link.To.ID == except {
			continue
		}
		peer := s.p.speakers[link.To.ID]
		delay := link.PropDelay + s.p.cfg.FloodHop.Draw(s.p.rng)
		msg := l.clone()
		from := s.r.ID
		s.p.net.Sim.Schedule(delay, func() {
			peer.receiveLSA(msg, from)
		})
	}
}

// receiveLSA installs a newer LSA, re-floods it, and schedules SPF.
func (s *speaker) receiveLSA(l *lsa, from netsim.NodeID) {
	cur := s.lsdb[l.origin]
	if cur != nil && cur.seq >= l.seq {
		return
	}
	s.lsdb[l.origin] = l
	s.flood(l, from)
	s.scheduleSPF()
}

// scheduleSPF arms the SPF hold-down timer if it is not already armed.
func (s *speaker) scheduleSPF() {
	if s.spfScheduled {
		return
	}
	s.spfScheduled = true
	hold := s.p.cfg.SPFHold.Draw(s.p.rng)
	s.p.net.Sim.Schedule(hold, func() {
		s.spfScheduled = false
		s.runSPF()
	})
}

// runSPF computes shortest paths and schedules the FIB installation
// after the compute + FIB-update delays.
func (s *speaker) runSPF() {
	s.p.SPFRuns++
	s.p.net.Journal.Append(events.Event{
		At: s.p.net.Sim.Now(), Kind: events.SPFComputed, Node: s.r.Name,
	})
	routes := s.computeRoutes()
	s.gen++
	gen := s.gen
	delay := s.p.cfg.SPFCompute.Draw(s.p.rng) + s.p.cfg.FIBUpdate.Draw(s.p.rng)
	s.p.net.Sim.Schedule(delay, func() {
		// A newer SPF outcome supersedes this one.
		if s.gen != gen {
			return
		}
		s.install(routes)
	})
}

// computeRoutes runs Dijkstra over the LSDB and maps every advertised
// prefix to the first-hop neighbor on the shortest path to its
// originating router. Adjacencies count only when both sides advertise
// them (the standard two-way connectivity check).
func (s *speaker) computeRoutes() map[routing.Prefix]netsim.NodeID {
	const inf = int(^uint(0) >> 1)
	dist := map[netsim.NodeID]int{s.r.ID: 0}
	firstHop := map[netsim.NodeID]netsim.NodeID{}
	visited := map[netsim.NodeID]bool{}

	twoWay := func(a, b netsim.NodeID) (int, bool) {
		la, lb := s.lsdb[a], s.lsdb[b]
		if la == nil || lb == nil {
			return 0, false
		}
		ca, oka := la.neighbors[b]
		_, okb := lb.neighbors[a]
		if !oka || !okb {
			return 0, false
		}
		return ca, true
	}

	for {
		// Extract the unvisited node with the smallest distance;
		// tie-break on NodeID for determinism.
		best := netsim.NodeID(-1)
		bestD := inf
		for id, d := range dist {
			if !visited[id] && (d < bestD || (d == bestD && (best == -1 || id < best))) {
				best, bestD = id, d
			}
		}
		if best == -1 {
			break
		}
		visited[best] = true
		l := s.lsdb[best]
		if l == nil {
			continue
		}
		for nb := range l.neighbors {
			cost, ok := twoWay(best, nb)
			if !ok {
				continue
			}
			nd := bestD + cost
			cur, seen := dist[nb]
			better := !seen || nd < cur
			// Deterministic equal-cost tie-break: prefer the smaller
			// first hop.
			if seen && nd == cur {
				var cand netsim.NodeID
				if best == s.r.ID {
					cand = nb
				} else {
					cand = firstHop[best]
				}
				if cand < firstHop[nb] {
					better = true
				}
			}
			if better {
				dist[nb] = nd
				if best == s.r.ID {
					firstHop[nb] = nb
				} else {
					firstHop[nb] = firstHop[best]
				}
			}
		}
	}

	// A prefix may be advertised by several routers (a backup exit);
	// prefer the closest origin, tie-breaking on the smaller node ID
	// so route selection is deterministic.
	type choice struct {
		dist   int
		origin netsim.NodeID
		hop    netsim.NodeID
	}
	best := make(map[routing.Prefix]choice)
	for origin, l := range s.lsdb {
		if origin == s.r.ID || !visited[origin] {
			continue
		}
		c := choice{dist: dist[origin], origin: origin, hop: firstHop[origin]}
		for _, pfx := range l.prefixes {
			cur, ok := best[pfx]
			if !ok || c.dist < cur.dist || (c.dist == cur.dist && c.origin < cur.origin) {
				best[pfx] = c
			}
		}
	}
	routes := make(map[routing.Prefix]netsim.NodeID, len(best))
	for pfx, c := range best {
		routes[pfx] = c.hop
	}
	return routes
}

// install diffs the computed route set against what is programmed and
// applies the changes to the router's FIB.
func (s *speaker) install(routes map[routing.Prefix]netsim.NodeID) {
	var changed []routing.Prefix
	defer func() {
		if len(changed) > 0 {
			s.p.net.Journal.Append(events.Event{
				At: s.p.net.Sim.Now(), Kind: events.FIBUpdated,
				Node: s.r.Name, Prefixes: changed,
			})
		}
	}()
	for pfx, via := range routes {
		if cur, ok := s.installed[pfx]; !ok || cur != via {
			if s.r.LinkTo(via) == nil {
				continue
			}
			s.r.SetRoute(pfx, via)
			s.installed[pfx] = via
			changed = append(changed, pfx)
		}
	}
	for pfx := range s.installed {
		if _, ok := routes[pfx]; !ok {
			s.r.RemoveRoute(pfx)
			delete(s.installed, pfx)
			changed = append(changed, pfx)
		}
	}
}
