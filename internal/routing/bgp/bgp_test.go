package bgp

import (
	"testing"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/routing/igp"
	"loopscope/internal/stats"
)

func fastIGP() igp.Config {
	return igp.Config{
		FloodHop:   igp.Fixed(5 * time.Millisecond),
		SPFHold:    igp.Fixed(20 * time.Millisecond),
		SPFCompute: igp.Fixed(5 * time.Millisecond),
		FIBUpdate:  igp.Fixed(10 * time.Millisecond),
	}
}

func fastBGP() Config {
	return Config{
		MsgDelay:  routing.Fixed(10 * time.Millisecond),
		MRAI:      routing.Fixed(50 * time.Millisecond),
		FIBUpdate: routing.Fixed(10 * time.Millisecond),
		LocalPref: 100,
	}
}

// twoExit builds: ext1(AS200) - b1 - b2 - b3 - ext2(AS300), AS 100 in
// the middle with an I-BGP mesh, dst originated by both externals.
func twoExit(t *testing.T) (*netsim.Network, *Protocol, []*netsim.Router, routing.Prefix) {
	t.Helper()
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 0, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	b1, b2, b3 := mk("b1", 1), mk("b2", 2), mk("b3", 3)
	e1, e2 := mk("e1", 11), mk("e2", 12)
	lp := netsim.DefaultLinkParams()
	n.Connect(b1, b2, lp)
	n.Connect(b2, b3, lp)
	n.Connect(b1, e1, lp)
	n.Connect(b3, e2, lp)

	ip := igp.Attach(n, fastIGP(), stats.NewRNG(1))
	ip.Start()

	p := Attach(n, fastBGP(), stats.NewRNG(2))
	p.AddSpeaker(b1, 100)
	p.AddSpeaker(b2, 100)
	p.AddSpeaker(b3, 100)
	p.AddSpeaker(e1, 200)
	p.AddSpeaker(e2, 300)
	p.MeshAS(100)
	if err := p.Peer(b1.ID, e1.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Peer(b3.ID, e2.ID); err != nil {
		t.Fatal(err)
	}

	dst := routing.MustParsePrefix("198.51.100.0/24")
	e1.AttachPrefix(dst)
	e2.AttachPrefix(dst)
	p.Speaker(e1.ID).Originate(dst)
	p.Speaker(e2.ID).Originate(dst)
	return n, p, []*netsim.Router{b1, b2, b3, e1, e2}, dst
}

func TestDecisionPrefersLowerEgressOnTie(t *testing.T) {
	n, p, rs, dst := twoExit(t)
	n.Sim.Run(5 * time.Second)

	b2 := rs[1]
	best, ok := p.Speaker(b2.ID).best[dst]
	if !ok {
		t.Fatal("b2 has no best route")
	}
	// Both mesh routes have equal local-pref, path length 1, and are
	// I-BGP; the lower egress (b1) wins.
	if best.Egress != rs[0].ID {
		t.Errorf("b2 best egress = %d, want b1 (%d)", best.Egress, rs[0].ID)
	}
	if via, ok := b2.RouteVia(packet.MustParseAddr("198.51.100.1")); !ok || via != rs[0].ID {
		t.Errorf("b2 FIB via %v ok=%v, want b1 (recursive resolution)", via, ok)
	}
}

func TestBorderPrefersItsEBGPRoute(t *testing.T) {
	n, p, rs, dst := twoExit(t)
	n.Sim.Run(5 * time.Second)

	// b3 hears the mesh route with egress b1 (lower ID) but must keep
	// its own E-BGP route: E-BGP beats I-BGP in the decision process.
	best, ok := p.Speaker(rs[2].ID).best[dst]
	if !ok {
		t.Fatal("b3 has no best route")
	}
	if best.Source != sourceEBGP {
		t.Errorf("b3 best source = %v, want E-BGP", best.Source)
	}
	if best.Egress != rs[4].ID {
		t.Errorf("b3 best egress = %d, want e2 (%d)", best.Egress, rs[4].ID)
	}
}

func TestDecisionProcessOrdering(t *testing.T) {
	// The full preference chain, pairwise: local-pref beats path
	// length beats source beats egress ID.
	short := &route{Path: []ASN{100}, LocalPref: 100, Source: sourceIBGP, Egress: 5}
	long := &route{Path: []ASN{100, 200}, LocalPref: 100, Source: sourceEBGP, Egress: 1}
	prefd := &route{Path: []ASN{100, 200, 300}, LocalPref: 200, Source: sourceIBGP, Egress: 9}
	ebgp := &route{Path: []ASN{100}, LocalPref: 100, Source: sourceEBGP, Egress: 7}
	lowEgress := &route{Path: []ASN{100}, LocalPref: 100, Source: sourceEBGP, Egress: 3}

	if !betterRoute(prefd, short) {
		t.Error("higher local-pref must win regardless of path length")
	}
	if !betterRoute(short, long) {
		t.Error("shorter path must win at equal local-pref")
	}
	if !betterRoute(ebgp, short) {
		t.Error("E-BGP must beat I-BGP at equal pref and length")
	}
	if !betterRoute(lowEgress, ebgp) {
		t.Error("lower egress must win the final tie-break")
	}
	if betterRoute(ebgp, ebgp) {
		t.Error("a route must not beat itself")
	}

	// Sanity in the live network: b1's own E-BGP route wins.
	n, p, rs, dst := twoExit(t)
	n.Sim.Run(5 * time.Second)
	best, _ := p.Speaker(rs[0].ID).best[dst]
	if best == nil || best.Egress != rs[3].ID {
		t.Fatalf("b1 best = %+v, want its E-BGP route via e1", best)
	}
}

func TestWithdrawalShiftsEgressEverywhere(t *testing.T) {
	n, p, rs, dst := twoExit(t)
	n.Sim.Run(5 * time.Second)

	p.Speaker(rs[3].ID).Withdraw(dst) // e1 withdraws
	n.Sim.Run(30 * time.Second)

	for _, r := range rs[:3] {
		best, ok := p.Speaker(r.ID).best[dst]
		if r == rs[2] {
			// b3: its own E-BGP route.
			if !ok || best.Egress != rs[4].ID {
				t.Errorf("%s best = %+v, want e2", r.Name, best)
			}
			continue
		}
		if !ok || best.Egress != rs[2].ID {
			t.Errorf("%s best egress = %+v, want b3 (next-hop-self)", r.Name, best)
		}
	}
	// b1's traffic flows towards b2.
	if via, ok := rs[0].RouteVia(packet.MustParseAddr("198.51.100.1")); !ok || via != rs[1].ID {
		t.Errorf("b1 via %v ok=%v, want b2", via, ok)
	}

	// Re-advertise: the preferred egress must flip back.
	p.Speaker(rs[3].ID).Originate(dst)
	n.Sim.Run(60 * time.Second)
	if best, ok := p.Speaker(rs[1].ID).best[dst]; !ok || best.Egress != rs[0].ID {
		t.Errorf("after re-advertise b2 best = %+v, want egress b1", best)
	}
}

func TestEBGPSessionDiesWithLink(t *testing.T) {
	n, p, rs, dst := twoExit(t)
	n.Sim.Run(5 * time.Second)

	// Kill the b1-e1 link: b1 must withdraw the e1 route from the
	// mesh and everyone shifts to e2's egress b3.
	n.FailLink(rs[0].LinkTo(rs[3].ID), 6*time.Second)
	n.Sim.Run(40 * time.Second)

	if best, ok := p.Speaker(rs[0].ID).best[dst]; !ok || best.Egress != rs[2].ID {
		t.Errorf("b1 best after session death = %+v, want egress b3", best)
	}
}

func TestASPathLoopPrevention(t *testing.T) {
	// Three ASes in a line; the middle speaker must not accept its
	// own ASN back.
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 1, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	a, b, c := mk("a", 1), mk("b", 2), mk("c", 3)
	lp := netsim.DefaultLinkParams()
	n.Connect(a, b, lp)
	n.Connect(b, c, lp)
	ip := igp.Attach(n, fastIGP(), stats.NewRNG(3))
	ip.Start()

	p := Attach(n, fastBGP(), stats.NewRNG(4))
	p.AddSpeaker(a, 100)
	p.AddSpeaker(b, 200)
	p.AddSpeaker(c, 300)
	if err := p.Peer(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Peer(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	dst := routing.MustParsePrefix("203.0.113.0/24")
	a.AttachPrefix(dst)
	p.Speaker(a.ID).Originate(dst)
	n.Sim.Run(10 * time.Second)

	// c hears [200 100]; a must never see the route come back.
	if best, ok := p.Speaker(c.ID).best[dst]; !ok {
		t.Error("c never learned the route")
	} else if len(best.Path) != 2 || best.Path[0] != 200 || best.Path[1] != 100 {
		t.Errorf("c path = %v, want [200 100]", best.Path)
	}
	if best, _ := p.Speaker(a.ID).best[dst]; best != nil && best.From != -1 {
		t.Errorf("a accepted a looped route: %+v", best)
	}
}

func TestMRAIPacesUpdates(t *testing.T) {
	// With a long MRAI, a burst of originations towards one peer must
	// batch: messages sent is far below prefix-flap count.
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 2, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	a, b := mk("a", 1), mk("b", 2)
	n.Connect(a, b, netsim.DefaultLinkParams())
	ip := igp.Attach(n, fastIGP(), stats.NewRNG(5))
	ip.Start()

	cfg := fastBGP()
	cfg.MRAI = routing.Fixed(10 * time.Second)
	p := Attach(n, cfg, stats.NewRNG(6))
	p.AddSpeaker(a, 100)
	p.AddSpeaker(b, 200)
	if err := p.Peer(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}

	dst := routing.MustParsePrefix("203.0.113.0/24")
	a.AttachPrefix(dst)
	// Flap the prefix 10 times within one MRAI interval.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		n.Sim.At(at, func() { p.Speaker(a.ID).Originate(dst) })
		n.Sim.At(at+100*time.Millisecond, func() { p.Speaker(a.ID).Withdraw(dst) })
	}
	n.Sim.Run(time.Minute)
	if p.Messages > 8 {
		t.Errorf("messages = %d; MRAI should have batched the flaps", p.Messages)
	}
	if p.Messages == 0 {
		t.Error("no messages at all")
	}
}

func TestPeerValidation(t *testing.T) {
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 3, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 3, 2))
	// No link between a and b.
	p := Attach(n, fastBGP(), stats.NewRNG(7))
	p.AddSpeaker(a, 100)
	p.AddSpeaker(b, 200)
	if err := p.Peer(a.ID, b.ID); err == nil {
		t.Error("non-adjacent E-BGP peering accepted")
	}
	if err := p.Peer(a.ID, 99); err == nil {
		t.Error("peering with unknown router accepted")
	}
}

func TestRouteFlapDamping(t *testing.T) {
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 4, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	border, ext := mk("border", 1), mk("ext", 2)
	n.Connect(border, ext, netsim.DefaultLinkParams())
	ip := igp.Attach(n, fastIGP(), stats.NewRNG(8))
	ip.Start()

	cfg := fastBGP()
	cfg.Damping = DefaultDamping()
	p := Attach(n, cfg, stats.NewRNG(9))
	sb := p.AddSpeaker(border, 100)
	se := p.AddSpeaker(ext, 200)
	if err := p.Peer(border.ID, ext.ID); err != nil {
		t.Fatal(err)
	}

	dst := routing.MustParsePrefix("203.0.113.0/24")
	ext.AttachPrefix(dst)

	// Flap the prefix hard: advertise/withdraw four times in quick
	// succession (MRAI is 50ms in fastBGP, so the updates go out).
	for i := 0; i < 4; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		n.Sim.At(at, func() { se.Originate(dst) })
		n.Sim.At(at+250*time.Millisecond, func() { se.Withdraw(dst) })
	}
	// Final state: advertised and stable.
	n.Sim.At(2500*time.Millisecond, func() { se.Originate(dst) })
	n.Sim.Run(4 * time.Second)

	// The border must have suppressed the flapping route: no best
	// route despite the final advertisement.
	held := dampKey{peer: int(ext.ID), prefix: dst}
	if ds := sb.damp[held]; ds == nil || !ds.suppressed {
		t.Fatal("route not suppressed after four flaps")
	}
	if _, ok := sb.best[dst]; ok {
		t.Error("suppressed route still selected")
	}

	// After the penalty decays below reuse, the held advertisement is
	// reinstated automatically.
	n.Sim.Run(90 * time.Second)
	if ds := sb.damp[held]; ds != nil && ds.suppressed {
		t.Fatal("route still suppressed after decay")
	}
	best, ok := sb.best[dst]
	if !ok || best.Egress != ext.ID {
		t.Errorf("held route not reinstated: %+v ok=%v", best, ok)
	}
	if via, ok := border.RouteVia(packet.MustParseAddr("203.0.113.1")); !ok || via != ext.ID {
		t.Errorf("FIB not restored after reuse: via=%v ok=%v", via, ok)
	}
}

func TestDampingDisabledByDefault(t *testing.T) {
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 5, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	border, ext := mk("border", 1), mk("ext", 2)
	n.Connect(border, ext, netsim.DefaultLinkParams())
	ip := igp.Attach(n, fastIGP(), stats.NewRNG(8))
	ip.Start()

	p := Attach(n, fastBGP(), stats.NewRNG(9)) // no damping
	sb := p.AddSpeaker(border, 100)
	se := p.AddSpeaker(ext, 200)
	if err := p.Peer(border.ID, ext.ID); err != nil {
		t.Fatal(err)
	}
	dst := routing.MustParsePrefix("203.0.113.0/24")
	ext.AttachPrefix(dst)
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 400 * time.Millisecond
		n.Sim.At(at, func() { se.Originate(dst) })
		n.Sim.At(at+200*time.Millisecond, func() { se.Withdraw(dst) })
	}
	n.Sim.At(3*time.Second, func() { se.Originate(dst) })
	n.Sim.Run(10 * time.Second)
	if _, ok := sb.best[dst]; !ok {
		t.Error("without damping the final advertisement must be selected")
	}
}

// TestPathHunting reproduces the Labovitz-style slow convergence: when
// the best route dies, the speaker explores progressively longer AS
// paths (each paced by MRAI) before settling — the reason BGP-driven
// loops are the long tail of the paper's Figure 9.
func TestPathHunting(t *testing.T) {
	// hub peers with three stubs offering paths of length 1, 2 and 3
	// to the same prefix.
	n := netsim.NewNetwork()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 6, oct))
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
		return r
	}
	hub := mk("hub", 1)
	s1, s2, s3 := mk("s1", 2), mk("s2", 3), mk("s3", 4)
	origin := mk("origin", 5)
	lp := netsim.DefaultLinkParams()
	n.Connect(hub, s1, lp)
	n.Connect(hub, s2, lp)
	n.Connect(hub, s3, lp)
	n.Connect(s1, origin, lp)
	n.Connect(s2, s1, lp)
	n.Connect(s3, s2, lp)

	ip := igp.Attach(n, fastIGP(), stats.NewRNG(1))
	ip.Start()

	cfg := fastBGP()
	cfg.MRAI = routing.Fixed(2 * time.Second)
	p := Attach(n, cfg, stats.NewRNG(2))
	p.AddSpeaker(hub, 100)
	p.AddSpeaker(s1, 201)
	p.AddSpeaker(s2, 202)
	p.AddSpeaker(s3, 203)
	p.AddSpeaker(origin, 300)
	for _, pair := range [][2]netsim.NodeID{
		{hub.ID, s1.ID}, {hub.ID, s2.ID}, {hub.ID, s3.ID},
		{s1.ID, origin.ID}, {s2.ID, s1.ID}, {s3.ID, s2.ID},
	} {
		if err := p.Peer(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	dst := routing.MustParsePrefix("203.0.113.0/24")
	origin.AttachPrefix(dst)
	p.Speaker(origin.ID).Originate(dst)
	n.Sim.Run(60 * time.Second)

	// Converged: hub prefers the shortest path via s1.
	best, ok := p.Speaker(hub.ID).best[dst]
	if !ok || len(best.Path) != 2 {
		t.Fatalf("hub best = %+v, want path length 2 via s1", best)
	}

	// Record hub's best-path lengths as they change after the origin
	// withdraws (s1's path dies first; s2's and s3's stale longer
	// paths remain available for a while — hunting).
	var hunt []int
	var mu = &hunt // alias for closure clarity
	_ = mu
	done := false
	var poll func()
	poll = func() {
		if done {
			return
		}
		if b, ok := p.Speaker(hub.ID).best[dst]; ok {
			l := len(b.Path)
			if len(hunt) == 0 || hunt[len(hunt)-1] != l {
				hunt = append(hunt, l)
			}
		} else if len(hunt) > 0 && hunt[len(hunt)-1] != 0 {
			hunt = append(hunt, 0) // converged to unreachable
			done = true
		}
		n.Sim.Schedule(50*time.Millisecond, poll)
	}
	n.Sim.At(70*time.Second, poll)
	n.Sim.At(70*time.Second+time.Millisecond, func() {
		p.Speaker(origin.ID).Withdraw(dst)
	})
	n.Sim.Run(5 * time.Minute)

	if len(hunt) < 3 {
		t.Fatalf("no path hunting observed: %v", hunt)
	}
	// The sequence must be non-decreasing path lengths ending in
	// unreachable: e.g. [2 3 4 0].
	for i := 1; i < len(hunt)-1; i++ {
		if hunt[i] < hunt[i-1] {
			t.Errorf("path length went down mid-hunt: %v", hunt)
		}
	}
	if hunt[len(hunt)-1] != 0 {
		t.Errorf("hunting did not end in withdrawal: %v", hunt)
	}
	t.Logf("hub explored path lengths %v before giving up", hunt)
}
