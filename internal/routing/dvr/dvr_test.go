package dvr

import (
	"testing"
	"time"

	"loopscope/internal/capture"
	"loopscope/internal/core"
	"loopscope/internal/events"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// line builds ing -> a -> b -> c with a prefix at c, returns the
// monitored a->b link and the b-c link (the one to fail).
func line(t *testing.T, cfg Config, seed uint64) (*netsim.Network, *Protocol,
	*netsim.Router, *netsim.Link, *netsim.Link, routing.Prefix) {
	t.Helper()
	n := netsim.NewNetwork()
	n.Journal = events.NewJournal()
	mk := func(name string, oct byte) *netsim.Router {
		r := n.AddRouter(name, packet.AddrFrom(10, 0, 0, oct))
		return r
	}
	ing, a, b, c := mk("ing", 1), mk("a", 2), mk("b", 3), mk("c", 4)
	lp := netsim.DefaultLinkParams()
	n.Connect(ing, a, lp)
	mon := n.Connect(a, b, lp)
	bc := n.Connect(b, c, lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	c.AttachPrefix(dst)
	ing.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))

	p := Attach(n, cfg, stats.NewRNG(seed))
	p.Start()
	return n, p, ing, mon, bc, dst
}

func TestConvergesFromColdStart(t *testing.T) {
	n, p, ing, _, _, dst := line(t, DefaultConfig(), 1)
	// A few periodic rounds spread the routes hop by hop.
	n.Sim.Run(30 * time.Second)
	if via, ok := n.Router(1).RouteVia(packet.MustParseAddr("203.0.113.9")); !ok {
		t.Fatal("a has no route after convergence")
	} else if n.Router(via).Name != "b" {
		t.Errorf("a routes via %v", n.Router(via).Name)
	}
	if rt := p.speakers[1].table[dst]; rt == nil || rt.metric != 2 {
		t.Errorf("a's route = %+v, want metric 2 (a->b->c)", rt)
	}
	// Traffic flows end to end.
	n.Sim.At(31*time.Second, func() {
		n.Inject(ing, packet.Packet{
			IP: packet.IPv4Header{
				Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
				Src: packet.MustParseAddr("192.0.2.1"), Dst: packet.MustParseAddr("203.0.113.9"), ID: 1,
			},
			Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
			HasTransport: true, PayloadLen: 10, PayloadSeed: 1,
		})
	})
	n.Sim.Run(40 * time.Second)
	if n.Delivered != 1 {
		t.Errorf("delivered = %d", n.Delivered)
	}
}

// TestCountToInfinityWithoutSplitHorizon: with mitigations off, a
// failure behind b makes a and b point at each other and count to 16
// one periodic round at a time — the canonical long transient loop.
func TestCountToInfinityWithoutSplitHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitHorizon = false
	cfg.Triggered = false
	// Count-to-infinity needs a's stale advertisement to reach b
	// before b's poisoned one reaches a — a 50/50 race per failure;
	// seed 3 is a deterministic instance where it happens.
	n, _, ing, mon, bc, _ := line(t, cfg, 3)
	n.Sim.Run(40 * time.Second) // converge

	tap := capture.NewLinkTap(mon, 40, nil, true)
	// Steady traffic through the monitored link.
	for i := 0; i < 3000; i++ {
		i := i
		n.Sim.At(40*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			n.Inject(ing, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.MustParseAddr("192.0.2.1"),
					Dst: packet.MustParseAddr("203.0.113.9"), ID: uint16(i + 1),
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
				HasTransport: true, PayloadLen: 10, PayloadSeed: uint64(i + 1),
			})
		})
	}
	n.FailLink(bc, 60*time.Second)
	n.Sim.Run(4 * time.Minute)

	if len(n.GroundTruth) == 0 {
		t.Fatal("no count-to-infinity loop formed")
	}
	res := core.DetectRecords(tap.Records(), core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Fatal("detector missed the count-to-infinity loop")
	}
	dur := res.Loops[0].Duration()
	for _, l := range res.Loops {
		if l.Duration() > dur {
			dur = l.Duration()
		}
	}
	// Counting from metric ~2 to 16 at ~5s per periodic round: tens
	// of seconds.
	if dur < 15*time.Second {
		t.Errorf("count-to-infinity loop lasted only %v", dur)
	}
	t.Logf("count-to-infinity loop observable for %v (%d streams)",
		dur, len(res.Loops[0].Streams))
}

// TestSplitHorizonSuppressesLoop: with poisoned reverse and triggered
// updates, the same failure converges quickly; any loop is brief.
func TestSplitHorizonSuppressesLoop(t *testing.T) {
	n, p, ing, mon, bc, dst := line(t, DefaultConfig(), 3)
	n.Sim.Run(40 * time.Second)

	tap := capture.NewLinkTap(mon, 40, nil, true)
	for i := 0; i < 3000; i++ {
		i := i
		n.Sim.At(40*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			n.Inject(ing, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.MustParseAddr("192.0.2.1"),
					Dst: packet.MustParseAddr("203.0.113.9"), ID: uint16(i + 1),
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
				HasTransport: true, PayloadLen: 10, PayloadSeed: uint64(i + 1),
			})
		})
	}
	n.FailLink(bc, 60*time.Second)
	n.Sim.Run(4 * time.Minute)

	// b poisons immediately; a learns infinity on the next update:
	// both end with no route, quickly.
	if rt := p.speakers[2].table[dst]; rt != nil && rt.metric < infinity {
		t.Errorf("a still believes metric %d after failure", rt.metric)
	}
	res := core.DetectRecords(tap.Records(), core.DefaultConfig())
	var longest time.Duration
	for _, l := range res.Loops {
		if l.Duration() > longest {
			longest = l.Duration()
		}
	}
	if longest > 10*time.Second {
		t.Errorf("split horizon left a %v loop", longest)
	}
	t.Logf("with split horizon: %d loops, longest %v", len(res.Loops), longest)
}

// TestSplitHorizonInsufficientForThreeNodeLoop demonstrates the
// classic limitation: split horizon only prevents two-node loops. In a
// triangle, a route can still count to infinity around three parties
// (a tells b, b tells c, c tells a — nobody advertises back the way
// they learned, so poisoned reverse never fires).
func TestSplitHorizonInsufficientForThreeNodeLoop(t *testing.T) {
	found := false
	for seed := uint64(1); seed <= 24 && !found; seed++ {
		cfg := DefaultConfig()
		cfg.Triggered = false // periodic-only, the worst case
		// A slow, jittery control plane desynchronises the poison's
		// arrival at a and b, opening the window in which b's stale
		// route reaches a — the textbook setting for the three-party
		// count.
		cfg.MsgDelay = routing.Range(50*time.Millisecond, 3*time.Second)
		n := netsim.NewNetwork()
		n.Journal = events.NewJournal()
		mk := func(name string, oct byte) *netsim.Router {
			return n.AddRouter(name, packet.AddrFrom(10, 0, 7, oct))
		}
		a, b, c, d := mk("a", 1), mk("b", 2), mk("c", 3), mk("d", 4)
		lp := netsim.DefaultLinkParams()
		n.Connect(a, b, lp)
		n.Connect(b, c, lp)
		n.Connect(a, c, lp)
		cd := n.Connect(c, d, lp)
		dst := routing.MustParsePrefix("203.0.113.0/24")
		d.AttachPrefix(dst)

		p := Attach(n, cfg, stats.NewRNG(seed))
		p.Start()
		n.Sim.Run(40 * time.Second)
		// Probes to keep the data plane exercised.
		for i := 0; i < 3000; i++ {
			i := i
			n.Sim.At(40*time.Second+time.Duration(i)*50*time.Millisecond, func() {
				n.Inject(a, packet.Packet{
					IP: packet.IPv4Header{
						Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
						Src: packet.MustParseAddr("10.0.7.1"),
						Dst: packet.MustParseAddr("203.0.113.9"), ID: uint16(i + 1),
					},
					Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
					HasTransport: true, PayloadLen: 16, PayloadSeed: uint64(i + 1),
				})
			})
		}
		n.FailLink(cd, 60*time.Second)
		n.Sim.Run(4 * time.Minute)
		for _, g := range n.GroundTruth {
			if g.LoopSize >= 3 {
				found = true
				t.Logf("seed %d: three-node loop despite split horizon (%d gt events)",
					seed, len(n.GroundTruth))
				break
			}
		}
	}
	if !found {
		t.Error("no seed produced a three-node loop; the classic limitation should be reproducible")
	}
}
