package igp

import (
	"testing"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

func fastConfig() Config {
	return Config{
		FloodHop:   Fixed(5 * time.Millisecond),
		SPFHold:    Fixed(20 * time.Millisecond),
		SPFCompute: Fixed(5 * time.Millisecond),
		FIBUpdate:  Fixed(10 * time.Millisecond),
	}
}

// grid builds a 2x3 grid network with a prefix at the far corner.
//
//	r0 - r1 - r2
//	 |    |    |
//	r3 - r4 - r5*
func grid(t *testing.T) (*netsim.Network, []*netsim.Router, routing.Prefix) {
	t.Helper()
	n := netsim.NewNetwork()
	rs := make([]*netsim.Router, 6)
	for i := range rs {
		rs[i] = n.AddRouter(string(rune('A'+i)), packet.AddrFrom(10, 0, 0, byte(i+1)))
		rs[i].AttachPrefix(routing.NewPrefix(rs[i].Loopback, 32))
	}
	lp := netsim.DefaultLinkParams()
	n.Connect(rs[0], rs[1], lp)
	n.Connect(rs[1], rs[2], lp)
	n.Connect(rs[3], rs[4], lp)
	n.Connect(rs[4], rs[5], lp)
	n.Connect(rs[0], rs[3], lp)
	n.Connect(rs[1], rs[4], lp)
	n.Connect(rs[2], rs[5], lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	rs[5].AttachPrefix(dst)
	return n, rs, dst
}

func TestInitialConvergenceShortestPaths(t *testing.T) {
	n, rs, dst := grid(t)
	p := Attach(n, fastConfig(), stats.NewRNG(1))
	p.Start()

	probe := packet.MustParseAddr("203.0.113.1")
	// r0's shortest path to r5 is 3 hops; the first hop must be r1 or
	// r3 (both cost 3); the deterministic tie-break picks the lower
	// node ID (r1).
	if via, ok := rs[0].RouteVia(probe); !ok || via != rs[1].ID {
		t.Errorf("r0 via %v ok=%v, want r1", via, ok)
	}
	if via, ok := rs[2].RouteVia(probe); !ok || via != rs[5].ID {
		t.Errorf("r2 via %v ok=%v, want r5 direct", via, ok)
	}
	if via, ok := rs[4].RouteVia(probe); !ok || via != rs[5].ID {
		t.Errorf("r4 via %v ok=%v, want r5 direct", via, ok)
	}
	_ = dst
	// Every router must hold 6 LSAs.
	for i := range rs {
		if got := len(p.speakers[rs[i].ID].lsdb); got != 6 {
			t.Errorf("router %d LSDB size = %d", i, got)
		}
	}
}

func TestAsymmetricCosts(t *testing.T) {
	// Triangle a-b-c: a->b direct is expensive, a->c->b cheap.
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	lp := func(f, r int) netsim.LinkParams {
		p := netsim.DefaultLinkParams()
		p.CostAB, p.CostBA = f, r
		return p
	}
	n.Connect(a, b, lp(10, 1)) // expensive a->b, cheap b->a
	n.Connect(a, c, lp(1, 1))
	n.Connect(c, b, lp(1, 1))
	dst := routing.MustParsePrefix("198.51.100.0/24")
	b.AttachPrefix(dst)
	a.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))

	p := Attach(n, fastConfig(), stats.NewRNG(2))
	p.Start()

	if via, ok := a.RouteVia(packet.MustParseAddr("198.51.100.1")); !ok || via != c.ID {
		t.Errorf("a routes via %v, want c (asymmetric metric)", via)
	}
	// Reverse direction uses the cheap b->a edge.
	if via, ok := b.RouteVia(packet.MustParseAddr("192.0.2.1")); !ok || via != a.ID {
		t.Errorf("b routes via %v, want a directly", via)
	}
}

func TestReconvergenceAfterFailureAndRepair(t *testing.T) {
	n, rs, _ := grid(t)
	p := Attach(n, fastConfig(), stats.NewRNG(3))
	p.Start()
	probe := packet.MustParseAddr("203.0.113.1")

	// Fail r2-r5; r2 must reroute via r1.
	l := rs[2].LinkTo(rs[5].ID)
	n.FailLink(l, time.Second)
	n.Sim.Run(5 * time.Second)
	if via, ok := rs[2].RouteVia(probe); !ok || via != rs[1].ID {
		t.Errorf("post-failure r2 via %v ok=%v, want r1", via, ok)
	}

	// Repair; r2 must return to the direct route.
	n.RepairLink(l, 10*time.Second)
	n.Sim.Run(20 * time.Second)
	if via, ok := rs[2].RouteVia(probe); !ok || via != rs[5].ID {
		t.Errorf("post-repair r2 via %v ok=%v, want r5", via, ok)
	}
}

func TestPartitionRemovesRoutes(t *testing.T) {
	// Chain a-b-c with prefix at c: failing b-c leaves a and b with
	// no route at all (and they must notice).
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	lp := netsim.DefaultLinkParams()
	n.Connect(a, b, lp)
	bc := n.Connect(b, c, lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	c.AttachPrefix(dst)

	p := Attach(n, fastConfig(), stats.NewRNG(4))
	p.Start()
	probe := packet.MustParseAddr("203.0.113.1")
	if _, ok := a.RouteVia(probe); !ok {
		t.Fatal("no initial route")
	}
	n.FailLink(bc, time.Second)
	n.Sim.Run(10 * time.Second)
	if via, ok := a.RouteVia(probe); ok {
		t.Errorf("a still routes via %v after partition", via)
	}
	if _, ok := b.RouteVia(probe); ok {
		t.Error("b still routes after partition")
	}
}

func TestAnycastPrefersCloserOrigin(t *testing.T) {
	// Prefix attached at both ends of a chain: each router routes to
	// its closer copy; ties break towards the lower node ID.
	n := netsim.NewNetwork()
	var rs []*netsim.Router
	for i := 0; i < 5; i++ {
		rs = append(rs, n.AddRouter(string(rune('a'+i)), packet.AddrFrom(10, 0, 0, byte(i+1))))
	}
	lp := netsim.DefaultLinkParams()
	for i := 0; i < 4; i++ {
		n.Connect(rs[i], rs[i+1], lp)
	}
	dst := routing.MustParsePrefix("198.51.100.0/24")
	rs[0].AttachPrefix(dst)
	rs[4].AttachPrefix(dst)

	p := Attach(n, fastConfig(), stats.NewRNG(5))
	p.Start()
	probe := packet.MustParseAddr("198.51.100.1")

	if via, ok := rs[1].RouteVia(probe); !ok || via != rs[0].ID {
		t.Errorf("r1 via %v, want r0 (closer)", via)
	}
	if via, ok := rs[3].RouteVia(probe); !ok || via != rs[4].ID {
		t.Errorf("r3 via %v, want r4 (closer)", via)
	}
	// r2 is equidistant; deterministic tie-break on origin ID picks
	// r0's side.
	if via, ok := rs[2].RouteVia(probe); !ok || via != rs[1].ID {
		t.Errorf("r2 via %v, want r1 (towards lower origin)", via)
	}
}

func TestSPFRunsBounded(t *testing.T) {
	// A single failure must not cause an SPF storm: with hold-downs,
	// each router runs O(1) SPFs per event.
	n, rs, _ := grid(t)
	p := Attach(n, fastConfig(), stats.NewRNG(6))
	p.Start()
	before := p.SPFRuns
	n.FailLink(rs[4].LinkTo(rs[5].ID), time.Second)
	n.Sim.Run(10 * time.Second)
	runs := p.SPFRuns - before
	if runs == 0 {
		t.Fatal("no SPF ran after failure")
	}
	if runs > 18 { // 6 routers x (1..3 LSAs coalesced under one hold-down)
		t.Errorf("SPF runs = %d, expected coalescing to bound this", runs)
	}
}
