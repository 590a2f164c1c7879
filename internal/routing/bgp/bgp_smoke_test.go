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

// TestEgressShiftLoop drives the paper's E-BGP scenario (§II-A): a
// prefix reachable through two egress routers is withdrawn from the
// primary. The I-BGP mesh members move to the backup egress at times
// staggered by message delays, MRAI pacing and FIB-update latency;
// while routers on the B1—B4 line disagree about the egress, packets
// ping-pong between them.
func TestEgressShiftLoop(t *testing.T) {
	net := netsim.NewNetwork()
	rng := stats.NewRNG(7)

	// AS 100 backbone: line B1 - B2 - B3 - B4.
	b1 := net.AddRouter("B1", packet.MustParseAddr("10.0.0.1"))
	b2 := net.AddRouter("B2", packet.MustParseAddr("10.0.0.2"))
	b3 := net.AddRouter("B3", packet.MustParseAddr("10.0.0.3"))
	b4 := net.AddRouter("B4", packet.MustParseAddr("10.0.0.4"))
	// External stub ASes.
	e1 := net.AddRouter("EXT1", packet.MustParseAddr("10.1.0.1")) // AS 200
	e2 := net.AddRouter("EXT2", packet.MustParseAddr("10.2.0.1")) // AS 300

	lp := netsim.DefaultLinkParams()
	net.Connect(b1, b2, lp)
	net.Connect(b2, b3, lp)
	net.Connect(b3, b4, lp)
	net.Connect(b1, e1, lp)
	net.Connect(b4, e2, lp)

	for _, r := range net.Routers() {
		r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
	}

	ip := igp.Attach(net, igp.DefaultConfig(), rng.Fork())
	ip.Start()

	cfg := DefaultConfig()
	cfg.MRAI = routing.Range(500*time.Millisecond, 3*time.Second)
	p := Attach(net, cfg, rng.Fork())
	p.AddSpeaker(b1, 100)
	p.AddSpeaker(b2, 100)
	p.AddSpeaker(b3, 100)
	p.AddSpeaker(b4, 100)
	p.AddSpeaker(e1, 200)
	p.AddSpeaker(e2, 300)
	p.MeshAS(100)
	if err := p.Peer(b1.ID, e1.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Peer(b4.ID, e2.ID); err != nil {
		t.Fatal(err)
	}

	dst := routing.MustParsePrefix("198.51.100.0/24")
	e1.AttachPrefix(dst)
	e2.AttachPrefix(dst)
	p.Speaker(e1.ID).Originate(dst)
	p.Speaker(e2.ID).Originate(dst)

	// Let BGP converge on the initial state.
	net.Sim.Run(30 * time.Second)
	if via, ok := b2.RouteVia(packet.MustParseAddr("198.51.100.7")); !ok {
		t.Fatalf("B2 has no route to the prefix after initial convergence")
	} else if via != b1.ID {
		t.Fatalf("B2 initial egress direction = %d, want towards B1 (%d)", via, b1.ID)
	}

	// Steady traffic from B3 towards the prefix across the
	// withdrawal window.
	for i := 0; i < 4000; i++ {
		i := i
		at := 29*time.Second + time.Duration(i)*5*time.Millisecond
		net.Sim.At(at, func() {
			net.Inject(b3, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoTCP,
					Src: packet.MustParseAddr("192.0.2.9"),
					Dst: packet.MustParseAddr("198.51.100.7"),
					ID:  uint16(i + 1),
				},
				Kind:         packet.KindTCP,
				TCP:          packet.TCPHeader{SrcPort: 1024, DstPort: 80, Flags: packet.TCPAck, DataOffset: 5},
				HasTransport: true,
				PayloadLen:   512,
				PayloadSeed:  uint64(i + 1),
			})
		})
	}

	// AS 200 withdraws the prefix at t=30s.
	net.Sim.At(30*time.Second, func() {
		p.Speaker(e1.ID).Withdraw(dst)
	})

	net.Sim.Run(120 * time.Second)

	// Converged: everything should point towards B4 now.
	if via, ok := b2.RouteVia(packet.MustParseAddr("198.51.100.7")); !ok || via != b3.ID {
		t.Errorf("B2 post-withdrawal next hop = %v ok=%v, want B3 (%d)", via, ok, b3.ID)
	}
	if len(net.GroundTruth) == 0 {
		t.Fatalf("no forwarding loop observed during egress shift; drops=%v", net.Drops)
	}
	w := net.GroundTruthWindows(time.Minute)
	t.Logf("loop windows: %d, first duration %v, ground-truth events %d, messages %d",
		len(w), w[0].End-w[0].Start, len(net.GroundTruth), p.Messages)
}
