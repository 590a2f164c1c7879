package igp

import (
	"testing"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// TestTransientLoopFigure1 reproduces the paper's Figure 1 scenario:
// three routers, R with the primary exit link, R2 with a backup exit.
// When R's exit fails, R immediately redirects towards R2's exit (it
// detected the failure first), but R1 keeps sending to R until its own
// FIB update lands — a transient two-node forwarding loop on the
// R1–R link.
func TestTransientLoopFigure1(t *testing.T) {
	net := netsim.NewNetwork()
	rng := stats.NewRNG(1)

	r := net.AddRouter("R", packet.MustParseAddr("10.0.0.1"))
	r1 := net.AddRouter("R1", packet.MustParseAddr("10.0.0.2"))
	r2 := net.AddRouter("R2", packet.MustParseAddr("10.0.0.3"))
	ext := net.AddRouter("EXT", packet.MustParseAddr("10.0.0.4"))
	ext2 := net.AddRouter("EXT2", packet.MustParseAddr("10.0.0.5"))

	lp := netsim.DefaultLinkParams()
	lp.PropDelay = 2 * time.Millisecond
	net.Connect(r, r1, lp)
	net.Connect(r1, r2, lp)
	primary := net.Connect(r, ext, lp) // primary exit
	net.Connect(r2, ext2, lp)          // backup exit

	dst := routing.MustParsePrefix("203.0.113.0/24")
	ext.AttachPrefix(dst)
	ext2.AttachPrefix(dst)

	cfg := Config{
		FloodHop:   Fixed(10 * time.Millisecond),
		SPFHold:    Fixed(100 * time.Millisecond),
		SPFCompute: Fixed(10 * time.Millisecond),
		// Wide FIB-update skew makes the loop window easy to hit.
		FIBUpdate: Range(50*time.Millisecond, 2*time.Second),
	}
	p := Attach(net, cfg, rng)
	p.Start()

	// Before the failure, R1 reaches the prefix via R.
	if via, ok := r1.RouteVia(packet.MustParseAddr("203.0.113.9")); !ok || via != r.ID {
		t.Fatalf("initial route from R1: via=%v ok=%v, want via R", via, ok)
	}

	net.FailLink(primary, 1*time.Second)

	// Inject a steady probe stream from R1 towards the prefix across
	// the failure window.
	probe := func(at time.Duration, ttl uint8, id uint16) {
		net.Sim.At(at, func() {
			net.Inject(r1, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: ttl, Protocol: packet.ProtoUDP,
					Src: packet.MustParseAddr("192.0.2.1"),
					Dst: packet.MustParseAddr("203.0.113.9"),
					ID:  id,
				},
				Kind:         packet.KindUDP,
				UDP:          packet.UDPHeader{SrcPort: 5000, DstPort: 53},
				HasTransport: true,
				PayloadLen:   100,
				PayloadSeed:  uint64(id),
			})
		})
	}
	for i := 0; i < 800; i++ {
		probe(900*time.Millisecond+time.Duration(i)*10*time.Millisecond, 64, uint16(i+1))
	}

	net.Sim.Run(30 * time.Second)

	if len(net.GroundTruth) == 0 {
		t.Fatalf("no forwarding loop observed; drops=%v delivered=%d", net.Drops, net.Delivered)
	}
	// The loop must involve revisits with a 2-router cycle.
	for _, g := range net.GroundTruth {
		if g.LoopSize < 2 {
			t.Errorf("loop size %d < 2", g.LoopSize)
		}
	}
	// After convergence, R1 must reach the prefix via R2 and probes
	// must be delivered again.
	if via, ok := r1.RouteVia(packet.MustParseAddr("203.0.113.9")); !ok || via != r2.ID {
		t.Fatalf("post-convergence route from R1: via=%v ok=%v, want via R2", via, ok)
	}
	if net.Drops[netsim.DropTTLExpired] == 0 {
		t.Errorf("expected TTL-expired drops from the loop")
	}
	windows := net.GroundTruthWindows(time.Minute)
	if len(windows) != 1 {
		t.Fatalf("ground-truth windows = %d, want 1 (%v)", len(windows), windows)
	}
	w := windows[0]
	if w.Prefix != dst {
		t.Errorf("loop window prefix = %v, want %v", w.Prefix, dst)
	}
	if d := w.End - w.Start; d <= 0 || d > 10*time.Second {
		t.Errorf("loop window duration = %v, want within (0, 10s]", d)
	}
	t.Logf("loop window: %v..%v (%v), %d events, delivered=%d ttlDrops=%d",
		w.Start, w.End, w.End-w.Start, w.Events, net.Delivered, net.Drops[netsim.DropTTLExpired])
}
