// Package dvr implements a RIP-style distance-vector routing protocol
// on a netsim.Network: periodic full-table advertisements to
// neighbors, Bellman-Ford relaxation, hop-count metric with an
// infinity of 16, triggered updates, and optional split horizon with
// poisoned reverse.
//
// Distance-vector protocols are the textbook source of long-lived
// transient loops: after a failure, two routers can point at each
// other while their metrics "count to infinity" one periodic update at
// a time. The paper studies link-state and BGP loops because that is
// what tier-1 backbones ran, but RIP-era loops are the canonical
// worst case — this package exists to generate them under the same
// detector, and to quantify how much split horizon buys
// (the classic mitigations ablation).
package dvr

import (
	"sort"
	"time"

	"loopscope/internal/events"
	"loopscope/internal/netsim"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// infinity is the unreachable metric (RIP uses 16).
const infinity = 16

// Config tunes the protocol.
type Config struct {
	// UpdateInterval is the periodic advertisement interval (RIP: 30s;
	// scaled down for simulation).
	UpdateInterval routing.Jittered
	// TriggeredDelay is the hold-off before a triggered update after a
	// route change.
	TriggeredDelay routing.Jittered
	// MsgDelay is the per-advertisement delivery delay.
	MsgDelay routing.Jittered
	// SplitHorizon enables split horizon with poisoned reverse: routes
	// learned from a neighbor are advertised back to it with metric
	// infinity.
	SplitHorizon bool
	// Triggered enables triggered updates on route changes (without
	// them, convergence is purely periodic and loops last longest).
	Triggered bool
}

// DefaultConfig uses second-scale timers (RIP's 30 s scaled by ~6) and
// both mitigations on.
func DefaultConfig() Config {
	return Config{
		UpdateInterval: routing.Range(4*time.Second, 6*time.Second),
		TriggeredDelay: routing.Range(100*time.Millisecond, 800*time.Millisecond),
		MsgDelay:       routing.Range(10*time.Millisecond, 60*time.Millisecond),
		SplitHorizon:   true,
		Triggered:      true,
	}
}

// route is one distance-vector table entry.
type route struct {
	metric  int
	via     netsim.NodeID // next hop (-1 = directly attached)
	learned netsim.NodeID // neighbor the route was learned from (-1 = local)
}

// advEntry is one row of an advertisement.
type advEntry struct {
	prefix routing.Prefix
	metric int
}

// Protocol is one distance-vector domain.
type Protocol struct {
	net      *netsim.Network
	cfg      Config
	rng      *stats.RNG
	speakers map[netsim.NodeID]*speaker
	// Advertisements counts full-table messages delivered.
	Advertisements int
}

type speaker struct {
	p     *Protocol
	r     *netsim.Router
	table map[routing.Prefix]*route
	// installed mirrors the FIB.
	installed map[routing.Prefix]netsim.NodeID
	trigArmed bool
}

// Attach creates the protocol over every router. Call Start to install
// directly attached routes and begin periodic updates.
func Attach(net *netsim.Network, cfg Config, rng *stats.RNG) *Protocol {
	p := &Protocol{
		net: net, cfg: cfg, rng: rng,
		speakers: make(map[netsim.NodeID]*speaker),
	}
	for _, r := range net.Routers() {
		s := &speaker{
			p: p, r: r,
			table:     make(map[routing.Prefix]*route),
			installed: make(map[routing.Prefix]netsim.NodeID),
		}
		p.speakers[r.ID] = s
		r.OnLinkDown(s.linkDown)
		r.OnLinkUp(func(*netsim.Link) { s.scheduleTriggered() })
	}
	return p
}

// Start seeds directly attached routes and starts each router's
// periodic advertisement timer. Unlike the IGP, the initial state is
// NOT pre-converged: distance-vector information spreads hop by hop
// through the first few update rounds, as it would in a real RIP
// deployment. Run the simulator for a few UpdateIntervals before
// injecting traffic.
func (p *Protocol) Start() {
	// Deterministic iteration: each schedulePeriodic draws from the
	// shared RNG, so the visit order must not depend on map layout.
	ids := make([]netsim.NodeID, 0, len(p.speakers))
	for id := range p.speakers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := p.speakers[id]
		for _, pfx := range s.r.LocalPrefixes() {
			s.table[pfx] = &route{metric: 0, via: -1, learned: -1}
		}
		s.schedulePeriodic()
	}
}

func (s *speaker) schedulePeriodic() {
	s.p.net.Sim.Schedule(s.p.cfg.UpdateInterval.Draw(s.p.rng), func() {
		s.advertise()
		s.schedulePeriodic()
	})
}

func (s *speaker) scheduleTriggered() {
	if !s.p.cfg.Triggered || s.trigArmed {
		return
	}
	s.trigArmed = true
	s.p.net.Sim.Schedule(s.p.cfg.TriggeredDelay.Draw(s.p.rng), func() {
		s.trigArmed = false
		s.advertise()
	})
}

// advertise sends the full table to every live neighbor, applying
// split horizon with poisoned reverse when configured.
func (s *speaker) advertise() {
	prefixes := make([]routing.Prefix, 0, len(s.table))
	for pfx := range s.table {
		prefixes = append(prefixes, pfx)
	}
	sortPrefixes(prefixes)
	for _, link := range s.r.Links() {
		if !link.Up() {
			continue
		}
		nb := link.To.ID
		adv := make([]advEntry, 0, len(prefixes))
		for _, pfx := range prefixes {
			rt := s.table[pfx]
			metric := rt.metric
			if s.p.cfg.SplitHorizon && rt.learned == nb {
				metric = infinity // poisoned reverse
			}
			adv = append(adv, advEntry{prefix: pfx, metric: metric})
		}
		peer := s.p.speakers[nb]
		from := s.r.ID
		s.p.net.Sim.Schedule(link.PropDelay+s.p.cfg.MsgDelay.Draw(s.p.rng), func() {
			s.p.Advertisements++
			peer.receive(from, adv)
		})
	}
}

func sortPrefixes(ps []routing.Prefix) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			a, b := ps[j-1], ps[j]
			if a.Addr.Uint32() < b.Addr.Uint32() ||
				(a.Addr == b.Addr && a.Bits <= b.Bits) {
				break
			}
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
}

// receive applies Bellman-Ford relaxation to an incoming
// advertisement.
func (s *speaker) receive(from netsim.NodeID, adv []advEntry) {
	if s.r.LinkTo(from) == nil || !s.r.LinkTo(from).Up() {
		return // neighbor gone while the message was in flight
	}
	changed := false
	for _, e := range adv {
		offered := e.metric + 1
		if offered > infinity {
			offered = infinity
		}
		cur, ok := s.table[e.prefix]
		switch {
		case !ok:
			if offered < infinity {
				s.table[e.prefix] = &route{metric: offered, via: from, learned: from}
				changed = true
			}
		case cur.via == from:
			// The current next hop updates its own metric
			// unconditionally (including getting worse).
			if cur.metric != offered {
				cur.metric = offered
				changed = true
			}
		case offered < cur.metric:
			cur.metric = offered
			cur.via = from
			cur.learned = from
			changed = true
		}
	}
	if changed {
		s.install()
		s.scheduleTriggered()
	}
}

// linkDown poisons routes through the dead neighbor.
func (s *speaker) linkDown(l *netsim.Link) {
	nb := l.To.ID
	changed := false
	for _, rt := range s.table {
		if rt.via == nb && rt.metric < infinity {
			rt.metric = infinity
			changed = true
		}
	}
	if changed {
		s.install()
		s.scheduleTriggered()
	}
}

// install syncs the FIB with the table.
func (s *speaker) install() {
	var changedPrefixes []routing.Prefix
	for pfx, rt := range s.table {
		switch {
		case rt.via == -1:
			// Directly attached: delivery handles it.
		case rt.metric >= infinity:
			if _, ok := s.installed[pfx]; ok {
				s.r.RemoveRoute(pfx)
				delete(s.installed, pfx)
				changedPrefixes = append(changedPrefixes, pfx)
			}
		default:
			if cur, ok := s.installed[pfx]; !ok || cur != rt.via {
				if s.r.LinkTo(rt.via) == nil {
					continue
				}
				s.r.SetRoute(pfx, rt.via)
				s.installed[pfx] = rt.via
				changedPrefixes = append(changedPrefixes, pfx)
			}
		}
	}
	if len(changedPrefixes) > 0 {
		s.p.net.Journal.Append(events.Event{
			At: s.p.net.Sim.Now(), Kind: events.FIBUpdated,
			Node: s.r.Name, Prefixes: changedPrefixes,
		})
	}
}
