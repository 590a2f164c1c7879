// Package bgp implements a path-vector exterior gateway protocol over
// a netsim.Network: E-BGP sessions between autonomous systems, an
// I-BGP full mesh inside an AS, a standard decision process
// (local-pref, AS-path length, tie-break), per-peer MRAI advertisement
// pacing, and recursive next-hop resolution through the router's FIB.
//
// Its role in the reproduction is to generate the slower class of
// transient loops the paper observes on Backbones 1 and 2: when an
// external prefix is withdrawn from one egress and traffic must shift
// to another, mesh members update their forwarding state at times
// spread out by message processing and MRAI pacing, and during that
// window packets bounce between routers that disagree about the
// egress. BGP convergence is minutes in the worst case [Labovitz et
// al.]; the loops it leaves behind are the >10 s tail of Figure 9.
package bgp

import (
	"fmt"
	"sort"
	"time"

	"loopscope/internal/events"
	"loopscope/internal/netsim"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// ASN is an autonomous-system number.
type ASN int

// Config sets protocol timing.
type Config struct {
	// MsgDelay is the one-way delivery + processing delay of one BGP
	// message (the session rides TCP across the IGP, so it is not
	// tied to a single link).
	MsgDelay routing.Jittered
	// MRAI is the per-peer minimum route advertisement interval.
	MRAI routing.Jittered
	// FIBUpdate is the delay from a decision-process change to the
	// forwarding table actually changing.
	FIBUpdate routing.Jittered
	// LocalPref, when non-zero, is assigned to routes learned over
	// E-BGP sessions (I-BGP propagates it unchanged).
	LocalPref int
	// Damping configures route-flap damping on E-BGP-learned routes
	// (disabled by default; see DefaultDamping).
	Damping DampingConfig
}

// DefaultConfig uses timing representative of early-2000s deployments,
// with MRAI scaled to seconds so convergence (and loop durations)
// lands in the tens of seconds rather than tens of minutes — the same
// shape at bench-friendly scale.
func DefaultConfig() Config {
	return Config{
		MsgDelay:  routing.Range(20*time.Millisecond, 150*time.Millisecond),
		MRAI:      routing.Range(2*time.Second, 6*time.Second),
		FIBUpdate: routing.Range(200*time.Millisecond, 3*time.Second),
		LocalPref: 100,
	}
}

// routeSource ranks how a route was learned, for the E-BGP-over-I-BGP
// step of the decision process.
type routeSource int

// Route sources, in decreasing preference.
const (
	sourceLocal routeSource = iota
	sourceEBGP
	sourceIBGP
)

// route is one BGP path for a prefix as stored in an Adj-RIB-In.
type route struct {
	Prefix    routing.Prefix
	Path      []ASN
	LocalPref int
	// Source records how this router learned the route; the decision
	// process prefers local > E-BGP > I-BGP.
	Source routeSource
	// Egress is the router whose loopback the forwarding plane must
	// resolve to reach this route's exit point.
	Egress netsim.NodeID
	// From is the peer the route was learned from (-1 for locally
	// originated routes).
	From netsim.NodeID
}

func (r *route) clone() *route {
	c := *r
	c.Path = append([]ASN(nil), r.Path...)
	return &c
}

// pathContains reports whether the AS path already carries asn
// (E-BGP loop prevention).
func pathContains(path []ASN, asn ASN) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}

// update is one BGP message: an advertisement (route != nil) or a
// withdrawal (route == nil) for Prefix.
type update struct {
	prefix routing.Prefix
	route  *route
	from   netsim.NodeID
}

// Protocol is one BGP instance spanning the network.
type Protocol struct {
	net      *netsim.Network
	cfg      Config
	rng      *stats.RNG
	speakers map[netsim.NodeID]*Speaker
	// Messages counts BGP updates delivered, for convergence-cost
	// reporting.
	Messages int
}

// Attach creates an empty BGP instance on the network. Add speakers
// with AddSpeaker, sessions with Peer, prefixes with Originate.
func Attach(net *netsim.Network, cfg Config, rng *stats.RNG) *Protocol {
	return &Protocol{
		net:      net,
		cfg:      cfg,
		rng:      rng,
		speakers: make(map[netsim.NodeID]*Speaker),
	}
}

// Speaker is the per-router BGP instance.
type Speaker struct {
	p   *Protocol
	r   *netsim.Router
	asn ASN

	peers map[netsim.NodeID]*peerState
	// adjIn[prefix][peer] is the route last advertised by peer.
	adjIn map[routing.Prefix]map[netsim.NodeID]*route
	// best is the outcome of the decision process.
	best map[routing.Prefix]*route
	// installed mirrors what is programmed into the FIB.
	installed map[routing.Prefix]netsim.NodeID
	gen       map[routing.Prefix]uint64
	origin    map[routing.Prefix]bool
	damp      map[dampKey]*dampState
}

type peerState struct {
	id   netsim.NodeID
	ebgp bool
	// mraiArmed marks the pacing timer as running; advertisements
	// queue in pending until it fires.
	mraiArmed bool
	pending   map[routing.Prefix]*route
	pendingW  map[routing.Prefix]bool
	// advertised tracks what we last sent, to suppress no-op
	// re-advertisements and to know what to withdraw.
	advertised map[routing.Prefix]bool
}

// AddSpeaker runs BGP on router r as a member of asn.
func (p *Protocol) AddSpeaker(r *netsim.Router, asn ASN) *Speaker {
	s := &Speaker{
		p: p, r: r, asn: asn,
		peers:     make(map[netsim.NodeID]*peerState),
		adjIn:     make(map[routing.Prefix]map[netsim.NodeID]*route),
		best:      make(map[routing.Prefix]*route),
		installed: make(map[routing.Prefix]netsim.NodeID),
		gen:       make(map[routing.Prefix]uint64),
		origin:    make(map[routing.Prefix]bool),
		damp:      make(map[dampKey]*dampState),
	}
	p.speakers[r.ID] = s
	r.OnLinkDown(s.linkDown)
	return s
}

// Speaker returns the instance on router id, or nil.
func (p *Protocol) Speaker(id netsim.NodeID) *Speaker { return p.speakers[id] }

// Peer establishes a BGP session between routers a and b. Same-AS
// pairs form I-BGP sessions, different-AS pairs E-BGP. E-BGP peers
// must be direct neighbors in the topology (single-hop sessions).
func (p *Protocol) Peer(a, b netsim.NodeID) error {
	sa, sb := p.speakers[a], p.speakers[b]
	if sa == nil || sb == nil {
		return fmt.Errorf("bgp: Peer(%d, %d): both routers need speakers", a, b)
	}
	ebgp := sa.asn != sb.asn
	if ebgp && sa.r.LinkTo(b) == nil {
		return fmt.Errorf("bgp: E-BGP peers %s and %s are not adjacent", sa.r.Name, sb.r.Name)
	}
	sa.peers[b] = newPeerState(b, ebgp)
	sb.peers[a] = newPeerState(a, ebgp)
	return nil
}

func newPeerState(id netsim.NodeID, ebgp bool) *peerState {
	return &peerState{
		id: id, ebgp: ebgp,
		pending:    make(map[routing.Prefix]*route),
		pendingW:   make(map[routing.Prefix]bool),
		advertised: make(map[routing.Prefix]bool),
	}
}

// MeshAS creates the full I-BGP mesh among all speakers of asn.
func (p *Protocol) MeshAS(asn ASN) {
	var members []netsim.NodeID
	for id, s := range p.speakers {
		if s.asn == asn {
			members = append(members, id)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			// Members are known speakers and I-BGP needs no
			// adjacency, so Peer cannot fail here.
			if err := p.Peer(members[i], members[j]); err != nil {
				panic(err)
			}
		}
	}
}

// Originate injects prefix into BGP at this speaker with an empty AS
// path, as the network does for its own customer prefixes and stub
// external ASes do for theirs.
func (s *Speaker) Originate(prefix routing.Prefix) {
	r := &route{
		Prefix:    prefix,
		Path:      nil,
		LocalPref: s.p.cfg.LocalPref,
		Source:    sourceLocal,
		Egress:    s.r.ID,
		From:      -1,
	}
	s.setAdjIn(prefix, -1, r)
	s.origin[prefix] = true
	s.p.net.Journal.Append(events.Event{
		At: s.p.net.Sim.Now(), Kind: events.PrefixAdvertised,
		Node: s.r.Name, Prefixes: []routing.Prefix{prefix},
	})
	s.decide(prefix)
}

// Withdraw removes a locally originated prefix, triggering withdrawals
// to all peers.
func (s *Speaker) Withdraw(prefix routing.Prefix) {
	if !s.origin[prefix] {
		return
	}
	delete(s.origin, prefix)
	s.clearAdjIn(prefix, -1)
	s.p.net.Journal.Append(events.Event{
		At: s.p.net.Sim.Now(), Kind: events.PrefixWithdrawn,
		Node: s.r.Name, Prefixes: []routing.Prefix{prefix},
	})
	s.decide(prefix)
}

func (s *Speaker) setAdjIn(prefix routing.Prefix, from netsim.NodeID, r *route) {
	m := s.adjIn[prefix]
	if m == nil {
		m = make(map[netsim.NodeID]*route)
		s.adjIn[prefix] = m
	}
	m[from] = r
}

func (s *Speaker) clearAdjIn(prefix routing.Prefix, from netsim.NodeID) {
	if m := s.adjIn[prefix]; m != nil {
		delete(m, from)
	}
}

// decide runs the decision process for one prefix and propagates the
// outcome to the FIB and to peers.
func (s *Speaker) decide(prefix routing.Prefix) {
	var best *route
	var bestFrom netsim.NodeID
	for from, r := range s.adjIn[prefix] {
		if r == nil {
			continue
		}
		if best == nil || betterRoute(r, best) ||
			(!betterRoute(best, r) && from < bestFrom) {
			best, bestFrom = r, from
		}
	}
	prev := s.best[prefix]
	if routesEqual(prev, best) {
		return
	}
	if best == nil {
		delete(s.best, prefix)
	} else {
		s.best[prefix] = best
	}
	s.p.net.Journal.Append(events.Event{
		At: s.p.net.Sim.Now(), Kind: events.BGPBestChanged,
		Node: s.r.Name, Prefixes: []routing.Prefix{prefix},
	})
	s.scheduleInstall(prefix, best)
	s.announce(prefix, best)
}

// betterRoute reports whether a strictly beats b: higher local-pref,
// then shorter AS path, then local-over-E-BGP-over-I-BGP, then lower
// egress ID. The source step is what real BGP uses to keep a border
// router anchored to its own external route instead of deferring to a
// mesh peer — without it two egresses can deadlock pointing at each
// other.
func betterRoute(a, b *route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	return a.Egress < b.Egress
}

func routesEqual(a, b *route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.LocalPref != b.LocalPref || a.Egress != b.Egress || a.From != b.From ||
		a.Source != b.Source || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// scheduleInstall programs the FIB after the FIB-update delay,
// resolving the route's egress through the router's current FIB
// (recursive next-hop resolution).
func (s *Speaker) scheduleInstall(prefix routing.Prefix, best *route) {
	s.gen[prefix]++
	gen := s.gen[prefix]
	delay := s.p.cfg.FIBUpdate.Draw(s.p.rng)
	s.p.net.Sim.Schedule(delay, func() {
		if s.gen[prefix] != gen {
			return
		}
		s.install(prefix, best)
	})
}

func (s *Speaker) install(prefix routing.Prefix, best *route) {
	if best == nil || s.origin[prefix] {
		// No route, or we deliver it ourselves: nothing to program
		// (originating routers have the prefix locally attached).
		if _, ok := s.installed[prefix]; ok {
			s.r.RemoveRoute(prefix)
			delete(s.installed, prefix)
		}
		return
	}
	var via netsim.NodeID = -1
	if best.Egress == s.r.ID {
		return
	}
	if l := s.r.LinkTo(best.Egress); l != nil && s.peers[best.Egress] != nil && s.peers[best.Egress].ebgp {
		// Directly connected E-BGP next hop.
		via = best.Egress
	} else {
		// Recursive resolution: follow the IGP route towards the
		// egress router's loopback.
		egress := s.p.net.Router(best.Egress)
		if hop, ok := s.r.RouteVia(egress.Loopback); ok {
			via = hop
		}
	}
	if via < 0 || s.r.LinkTo(via) == nil {
		if _, ok := s.installed[prefix]; ok {
			s.r.RemoveRoute(prefix)
			delete(s.installed, prefix)
		}
		return
	}
	if cur, ok := s.installed[prefix]; !ok || cur != via {
		s.r.SetRoute(prefix, via)
		s.installed[prefix] = via
		s.p.net.Journal.Append(events.Event{
			At: s.p.net.Sim.Now(), Kind: events.FIBUpdated,
			Node: s.r.Name, Prefixes: []routing.Prefix{prefix},
		})
	}
}

// announce queues the new best route (or a withdrawal) towards every
// eligible peer, respecting advertisement rules and MRAI pacing.
// Peers are visited in ID order: the pacing and message timers draw
// from a shared RNG, so iteration order must be deterministic for the
// simulation to be reproducible.
func (s *Speaker) announce(prefix routing.Prefix, best *route) {
	for _, id := range s.sortedPeerIDs() {
		s.queueToPeer(s.peers[id], prefix, best)
	}
}

// sortedPeerIDs returns the peer IDs in ascending order.
func (s *Speaker) sortedPeerIDs() []netsim.NodeID {
	ids := make([]netsim.NodeID, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// queueToPeer applies the export policy for one peer and queues the
// resulting advertisement/withdrawal.
func (s *Speaker) queueToPeer(ps *peerState, prefix routing.Prefix, best *route) {
	var out *route
	if best != nil {
		switch {
		case ps.ebgp:
			// E-BGP: prepend our ASN; next hop becomes us.
			out = best.clone()
			out.Path = append([]ASN{s.asn}, out.Path...)
			out.Egress = s.r.ID
			out.From = s.r.ID
			if pathContains(best.Path, s.p.speakers[ps.id].asn) {
				out = nil // poison: peer's AS already in path
			}
		default:
			// I-BGP: only routes we originated or learned over E-BGP
			// may be reflected into the mesh.
			fromPeer := s.peers[best.From]
			if best.From == -1 || (fromPeer != nil && fromPeer.ebgp) {
				out = best.clone()
				out.From = s.r.ID
				// Egress: ourselves for E-BGP-learned (next-hop-self)
				// and for originated routes.
				out.Egress = s.r.ID
			} else {
				out = nil // not exportable over I-BGP
			}
		}
	}
	if out == nil {
		if !ps.advertised[prefix] && !ps.pendingW[prefix] && ps.pending[prefix] == nil {
			return
		}
		ps.pendingW[prefix] = true
		delete(ps.pending, prefix)
	} else {
		ps.pending[prefix] = out
		delete(ps.pendingW, prefix)
	}
	s.kickMRAI(ps)
}

// kickMRAI sends pending updates immediately if the pacing timer is
// idle, then arms it; otherwise the pending set drains when the timer
// fires.
func (s *Speaker) kickMRAI(ps *peerState) {
	if ps.mraiArmed {
		return
	}
	s.flushPeer(ps)
	ps.mraiArmed = true
	s.p.net.Sim.Schedule(s.p.cfg.MRAI.Draw(s.p.rng), func() {
		ps.mraiArmed = false
		if len(ps.pending) > 0 || len(ps.pendingW) > 0 {
			s.kickMRAI(ps)
		}
	})
}

// flushPeer transmits all queued updates to the peer, in prefix order
// (each send draws a message delay from the shared RNG, so the order
// must be deterministic).
func (s *Speaker) flushPeer(ps *peerState) {
	peer := s.p.speakers[ps.id]
	for _, prefix := range sortedPrefixes(ps.pending) {
		r := ps.pending[prefix]
		ps.advertised[prefix] = true
		s.sendUpdate(peer, update{prefix: prefix, route: r.clone(), from: s.r.ID})
		delete(ps.pending, prefix)
	}
	for _, prefix := range sortedPrefixKeys(ps.pendingW) {
		if ps.advertised[prefix] {
			delete(ps.advertised, prefix)
			s.sendUpdate(peer, update{prefix: prefix, route: nil, from: s.r.ID})
		}
		delete(ps.pendingW, prefix)
	}
}

func prefixLess(a, b routing.Prefix) bool {
	if a.Addr != b.Addr {
		return a.Addr.Uint32() < b.Addr.Uint32()
	}
	return a.Bits < b.Bits
}

func sortedPrefixes(m map[routing.Prefix]*route) []routing.Prefix {
	out := make([]routing.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return prefixLess(out[i], out[j]) })
	return out
}

func sortedPrefixKeys(m map[routing.Prefix]bool) []routing.Prefix {
	out := make([]routing.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return prefixLess(out[i], out[j]) })
	return out
}

func (s *Speaker) sendUpdate(peer *Speaker, u update) {
	s.p.net.Sim.Schedule(s.p.cfg.MsgDelay.Draw(s.p.rng), func() {
		s.p.Messages++
		peer.receive(u)
	})
}

// receive processes one update from a peer.
func (s *Speaker) receive(u update) {
	ps := s.peers[u.from]
	if ps == nil {
		return // session torn down while the message was in flight
	}
	if u.route != nil && pathContains(u.route.Path, s.asn) {
		return // AS-path loop prevention
	}
	// Route-flap damping may withhold the update entirely.
	adv, withheld := s.applyDamping(u, ps)
	if withheld {
		// A freshly suppressed route must also leave the RIB.
		s.clearAdjIn(u.prefix, u.from)
		s.decide(u.prefix)
		return
	}
	if adv != nil {
		r := adv.clone()
		if ps.ebgp {
			r.LocalPref = s.p.cfg.LocalPref
			r.Source = sourceEBGP
		} else {
			r.Source = sourceIBGP
		}
		r.From = u.from
		s.setAdjIn(u.prefix, u.from, r)
	} else {
		s.clearAdjIn(u.prefix, u.from)
	}
	s.decide(u.prefix)
}

// linkDown tears down E-BGP sessions that rode the failed link and
// withdraws everything learned from those peers. I-BGP sessions
// survive single link failures (TCP reroutes over the IGP).
func (s *Speaker) linkDown(l *netsim.Link) {
	peerID := l.To.ID
	ps := s.peers[peerID]
	if ps == nil || !ps.ebgp {
		return
	}
	delete(s.peers, peerID)
	var affected []routing.Prefix
	for prefix, m := range s.adjIn {
		if _, ok := m[peerID]; ok {
			delete(m, peerID)
			affected = append(affected, prefix)
		}
	}
	sort.Slice(affected, func(i, j int) bool {
		return affected[i].Addr.Uint32() < affected[j].Addr.Uint32() ||
			(affected[i].Addr == affected[j].Addr && affected[i].Bits < affected[j].Bits)
	})
	for _, prefix := range affected {
		s.decide(prefix)
	}
}
