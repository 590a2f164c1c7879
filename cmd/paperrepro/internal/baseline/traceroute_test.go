package baseline_test

import (
	"testing"
	"time"

	"loopscope/cmd/paperrepro/internal/baseline"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/routing/igp"
	"loopscope/internal/stats"
)

// buildLine builds ing → c1 → c2 → a1 → e1 with a backup exit pb off
// c1, so failing a1–e1 creates a c1/c2 transient loop.
func buildLine(t *testing.T) (*netsim.Network, *netsim.Router, *netsim.Link, routing.Prefix) {
	t.Helper()
	net := netsim.NewNetwork()
	lp := netsim.DefaultLinkParams()

	names := []string{"ing", "c1", "c2", "a1", "e1", "pb"}
	rs := make([]*netsim.Router, len(names))
	for i, n := range names {
		rs[i] = net.AddRouter(n, packet.AddrFrom(10, 0, 0, byte(i+1)))
		rs[i].AttachPrefix(routing.NewPrefix(rs[i].Loopback, 32))
	}
	ing, c1, c2, a1, e1, pb := rs[0], rs[1], rs[2], rs[3], rs[4], rs[5]
	net.Connect(ing, c1, lp)
	net.Connect(c1, c2, lp)
	net.Connect(c2, a1, lp)
	primary := net.Connect(a1, e1, lp)
	bk := netsim.DefaultLinkParams()
	bk.CostAB, bk.CostBA = 10, 10
	net.Connect(c1, pb, bk)

	dst := routing.MustParsePrefix("203.0.113.0/24")
	e1.AttachPrefix(dst)
	pb.AttachPrefix(dst)
	// Host space at the ingress, routable before the IGP seeds its
	// LSAs, so ICMP errors find their way back to probers and
	// sources.
	ing.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))

	cfg := igp.Config{
		FloodHop:   igp.Fixed(15 * time.Millisecond),
		SPFHold:    igp.Fixed(200 * time.Millisecond),
		SPFCompute: igp.Fixed(20 * time.Millisecond),
		FIBUpdate:  igp.Range(100*time.Millisecond, 3*time.Second),
	}
	p := igp.Attach(net, cfg, stats.NewRNG(5))
	p.Start()
	return net, ing, primary, dst
}

func TestTracerouteSeesStablePath(t *testing.T) {
	net, ing, _, dst := buildLine(t)
	pr := baseline.NewProber(net, ing, packet.MustParseAddr("192.0.2.250"),
		[]packet.Addr{packet.MustParseAddr("203.0.113.7")}, baseline.Config{
			Interval: 10 * time.Second, ProbeTimeout: time.Second, MaxTTL: 8,
		})
	pr.Start(15 * time.Second)
	net.Sim.Run(40 * time.Second)

	if len(pr.Results) == 0 {
		t.Fatalf("no traceroutes completed")
	}
	tr := pr.Results[0]
	// Expect the forward path routers to answer in order:
	// c1 (10.0.0.2), c2 (.3), a1 (.4); then the destination absorbs
	// the rest (holes).
	// TTL 1 expires at the ingress gateway itself, then each router
	// along the path.
	want := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}
	for i, w := range want {
		if i >= len(tr.Hops) {
			t.Fatalf("traceroute too short: %v", tr.Hops)
		}
		if tr.Hops[i].String() != w {
			t.Errorf("hop %d = %v, want %s (hops %v)", i+1, tr.Hops[i], w, tr.Hops)
		}
	}
	if tr.LoopDetected {
		t.Errorf("loop detected on a stable path: %+v", tr)
	}
	_ = dst
}

// TestTracerouteMissesShortLoop is the paper's §III argument as an
// executable claim: a sparse active prober misses transient loops that
// the passive trace detector catches.
func TestTracerouteMissesShortLoop(t *testing.T) {
	net, ing, primary, _ := buildLine(t)

	// Probe every 20s: expected to miss a ~1s loop almost always.
	pr := baseline.NewProber(net, ing, packet.MustParseAddr("192.0.2.250"),
		[]packet.Addr{packet.MustParseAddr("203.0.113.7")}, baseline.Config{
			Interval: 20 * time.Second, ProbeTimeout: time.Second, MaxTTL: 8,
		})
	pr.Start(100 * time.Second)

	// Passive tap on the monitored link c1->c2.
	c1 := net.Router(1)
	mon := c1.LinkTo(2)
	var count int
	mon.AddTap(func(at netsim.Time, tp *netsim.TransitPacket) { count++ })

	// Background traffic so the passive detector has packets to see.
	for i := 0; i < 3000; i++ {
		i := i
		net.Sim.At(time.Duration(i)*30*time.Millisecond, func() {
			net.Inject(ing, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.MustParseAddr("192.0.2.66"),
					Dst: packet.MustParseAddr("203.0.113.9"),
					ID:  uint16(i + 1),
				},
				Kind:         packet.KindUDP,
				UDP:          packet.UDPHeader{SrcPort: 7000, DstPort: 53},
				HasTransport: true,
				PayloadLen:   64, PayloadSeed: uint64(i + 1),
			})
		})
	}

	// Several fail/repair cycles: each transition (in either
	// direction) has a chance of an observable loop depending on the
	// FIB-update ordering, so a handful makes at least one all but
	// certain.
	for _, at := range []time.Duration{30 * time.Second, 50 * time.Second, 70 * time.Second} {
		net.FailLink(primary, at)
		net.RepairLink(primary, at+10*time.Second)
	}
	net.Sim.Run(120 * time.Second)

	if len(net.GroundTruth) == 0 {
		t.Fatalf("no loop occurred")
	}
	gt := net.GroundTruthWindows(2 * time.Second)
	var longest time.Duration
	for _, w := range gt {
		if w.Duration() > longest {
			longest = w.Duration()
		}
	}
	if longest > 15*time.Second {
		t.Fatalf("unexpectedly long loop: %v", longest)
	}
	// The active prober ran through the whole window yet (very
	// likely) saw nothing: no traceroute overlapped the sub-5s loop.
	overlapped := false
	for _, tr := range pr.Results {
		for _, w := range gt {
			if tr.At >= w.Start-2*time.Second && tr.At <= w.End {
				overlapped = true
			}
		}
	}
	if !overlapped && pr.LoopsDetected() > 0 {
		t.Errorf("prober claims a loop without overlapping one: %+v", pr.Results)
	}
	t.Logf("ground-truth windows %d (longest %v); traceroutes=%d, loops seen by prober=%d, packets on monitored link=%d",
		len(gt), longest, len(pr.Results), pr.LoopsDetected(), count)
}
