package netsim

import (
	"testing"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

func TestSimulatorOrdering(t *testing.T) {
	s := newSimulator()
	var order []int
	s.Schedule(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(time.Second, func() { order = append(order, 1) })
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	// Same-instant events run in scheduling order.
	s.At(time.Second, func() { order = append(order, 11) })
	s.Run(10 * time.Second)
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 10*time.Second {
		t.Errorf("Now = %v after Run(10s)", s.Now())
	}
}

func TestSimulatorRunBoundary(t *testing.T) {
	s := newSimulator()
	ran := false
	s.At(5*time.Second, func() { ran = true })
	s.Run(4 * time.Second)
	if ran {
		t.Error("future event ran early")
	}
	if len(s.queue) != 1 {
		t.Errorf("%d events pending", len(s.queue))
	}
	s.Run(5 * time.Second)
	if !ran {
		t.Error("event at boundary did not run")
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := newSimulator()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 5 {
			s.Schedule(time.Second, tick)
		}
	}
	s.Schedule(0, tick)
	s.Run(time.Minute)
	if n != 5 {
		t.Errorf("ticks = %d", n)
	}
}

func TestSimulatorClampsPast(t *testing.T) {
	s := newSimulator()
	var at Time
	s.At(2*time.Second, func() {
		s.At(time.Second, func() { at = s.Now() }) // in the past
	})
	s.Run(time.Minute)
	if at != 2*time.Second {
		t.Errorf("past event ran at %v, want clamped to 2s", at)
	}
}

// buildPair wires src -> dst with an attached prefix on dst.
func buildPair(bw float64, prop Time, queue int) (*Network, *Router, *Router, *Link) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	l := n.Connect(a, b, LinkParams{Bandwidth: bw, PropDelay: prop, QueueLimit: queue})
	dst := routing.MustParsePrefix("203.0.113.0/24")
	b.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	return n, a, b, l
}

func testPacket(id uint16, ttl uint8, payload int) packet.Packet {
	return packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: ttl, Protocol: packet.ProtoUDP,
			Src: packet.MustParseAddr("192.0.2.1"),
			Dst: packet.MustParseAddr("203.0.113.50"), ID: id,
		},
		Kind:         packet.KindUDP,
		UDP:          packet.UDPHeader{SrcPort: 9, DstPort: 9},
		HasTransport: true,
		PayloadLen:   payload,
		PayloadSeed:  uint64(id),
	}
}

func TestLinkDelayMath(t *testing.T) {
	// 1 Mbps, 10 ms propagation: a 1000-byte packet (wire 1028 with
	// headers) serialises in 8.224 ms; delivery at tx+prop.
	n, a, _, _ := buildPair(1e6, 10*time.Millisecond, 16)
	var deliveredAt Time
	n.FateFilter = func(f *Fate) bool { return true }
	tp := n.Inject(a, testPacket(1, 64, 1000))
	wire := tp.Pkt.WireLen()
	n.Sim.Run(time.Second)
	if len(n.Fates) != 1 || !n.Fates[0].Delivered {
		t.Fatalf("fates: %+v", n.Fates)
	}
	deliveredAt = n.Fates[0].At
	wantTx := time.Duration(float64(wire*8) / 1e6 * float64(time.Second))
	want := wantTx + 10*time.Millisecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v (wire %d bytes)", deliveredAt, want, wire)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two packets injected back to back: the second waits for the
	// first's transmission.
	n, a, _, _ := buildPair(1e6, 0, 16)
	n.FateFilter = func(f *Fate) bool { return true }
	n.Inject(a, testPacket(1, 64, 1000))
	n.Inject(a, testPacket(2, 64, 1000))
	n.Sim.Run(time.Second)
	if len(n.Fates) != 2 {
		t.Fatalf("fates: %d", len(n.Fates))
	}
	d1, d2 := n.Fates[0].At, n.Fates[1].At
	if d2 != 2*d1 {
		t.Errorf("second delivery %v, want %v (strict FIFO serialisation)", d2, 2*d1)
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	n, a, _, _ := buildPair(1e6, 0, 4)
	for i := 0; i < 10; i++ {
		n.Inject(a, testPacket(uint16(i+1), 64, 1000))
	}
	n.Sim.Run(time.Second)
	if n.Drops[dropQueueFull] != 6 {
		t.Errorf("queue-full drops = %d, want 6", n.Drops[dropQueueFull])
	}
	if n.Delivered != 4 {
		t.Errorf("delivered = %d, want 4", n.Delivered)
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	// a -> b -> c chain; TTL 1 expires at b, which must send a
	// time-exceeded back to the source (delivered at a, where the
	// source prefix lives).
	n := NewNetwork()
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	c := n.AddRouter("c", packet.MustParseAddr("10.0.0.3"))
	lp := DefaultLinkParams()
	n.Connect(a, b, lp)
	n.Connect(b, c, lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	c.AttachPrefix(dst)
	a.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))
	a.SetRoute(dst, b.ID)
	b.SetRoute(dst, c.ID)
	b.SetRoute(routing.MustParsePrefix("192.0.2.0/24"), a.ID)

	var icmp []*TransitPacket
	n.OnDeliver = func(r *Router, tp *TransitPacket) {
		if tp.Pkt.Kind == packet.KindICMP {
			icmp = append(icmp, tp)
		}
	}
	n.Inject(a, testPacket(1, 2, 100)) // TTL 2: a forwards (1), b expires
	n.Sim.Run(time.Second)

	if n.Drops[DropTTLExpired] != 1 {
		t.Fatalf("ttl drops = %d", n.Drops[DropTTLExpired])
	}
	if len(icmp) != 1 {
		t.Fatalf("icmp deliveries = %d", len(icmp))
	}
	got := icmp[0].Pkt
	if got.ICMP.Type != packet.ICMPTimeExceeded {
		t.Errorf("icmp type = %d", got.ICMP.Type)
	}
	if got.IP.Src != b.Loopback {
		t.Errorf("icmp source = %v, want b's loopback", got.IP.Src)
	}
	if got.IP.Dst != packet.MustParseAddr("192.0.2.1") {
		t.Errorf("icmp dest = %v", got.IP.Dst)
	}
}

func TestICMPRateLimit(t *testing.T) {
	n := NewNetwork()
	n.ICMPMinInterval = 100 * time.Millisecond
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	n.Connect(a, b, DefaultLinkParams())
	dst := routing.MustParsePrefix("203.0.113.0/24")
	a.SetRoute(dst, b.ID)
	b.AttachPrefix(routing.MustParsePrefix("10.9.0.0/16"))

	// 10 expiring packets within 10 ms: only the first generates an
	// ICMP under a 100 ms limiter.
	for i := 0; i < 10; i++ {
		i := i
		n.Sim.At(time.Duration(i)*time.Millisecond, func() {
			pkt := testPacket(uint16(i+1), 1, 64) // TTL 1 expires at a
			n.Inject(a, pkt)
		})
	}
	n.Sim.Run(time.Second)
	if n.Drops[DropTTLExpired] != 10 {
		t.Fatalf("ttl drops = %d", n.Drops[DropTTLExpired])
	}
	// The generated ICMPs have no route (dst 192.0.2.1 unattached) so
	// they appear as no-route drops; exactly one limiter slot passed.
	if n.Drops[DropNoRoute] != 1 {
		t.Errorf("ICMP emissions = %d, want 1 (rate limited)", n.Drops[DropNoRoute])
	}
}

func TestNoICMPAboutICMPErrors(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	n.Connect(a, b, DefaultLinkParams())

	pkt := packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: 1, Protocol: packet.ProtoICMP,
			Src: packet.MustParseAddr("10.0.0.9"), Dst: packet.MustParseAddr("203.0.113.1"), ID: 1,
		},
		Kind:         packet.KindICMP,
		ICMP:         packet.ICMPHeader{Type: packet.ICMPTimeExceeded},
		HasTransport: true,
	}
	n.Inject(a, pkt)
	n.Sim.Run(time.Second)
	if n.Injected != 1 {
		t.Errorf("a time-exceeded about a time-exceeded was generated (injected=%d)", n.Injected)
	}
}

func TestEchoReply(t *testing.T) {
	n, a, _, _ := buildPair(1e9, time.Millisecond, 16)
	a.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))
	n.Router(1).SetRoute(routing.MustParsePrefix("192.0.2.0/24"), a.ID)

	var echoes int
	n.OnDeliver = func(r *Router, tp *TransitPacket) {
		if tp.Pkt.Kind == packet.KindICMP && tp.Pkt.ICMP.Type == packet.ICMPEchoReply {
			echoes++
		}
	}
	ping := packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoICMP,
			Src: packet.MustParseAddr("192.0.2.7"), Dst: packet.MustParseAddr("203.0.113.3"), ID: 1,
		},
		Kind:         packet.KindICMP,
		ICMP:         packet.ICMPHeader{Type: packet.ICMPEchoRequest, Rest: 0x12340001},
		HasTransport: true,
		PayloadLen:   56,
	}
	n.Inject(a, ping)
	n.Sim.Run(time.Second)
	if echoes != 1 {
		t.Errorf("echo replies delivered = %d, want 1", echoes)
	}
}

func TestLinkFailureCallbacksAndDrops(t *testing.T) {
	n, a, _, l := buildPair(1e9, time.Millisecond, 16)
	var downAt Time
	a.OnLinkDown(func(fl *Link) { downAt = n.Sim.Now() })
	n.FailLink(l, 100*time.Millisecond)

	n.Sim.At(150*time.Millisecond, func() {
		n.Inject(a, testPacket(5, 64, 100))
	})
	n.Sim.Run(time.Second)

	wantDetect := 100*time.Millisecond + l.DetectDelay
	if downAt != wantDetect {
		t.Errorf("down callback at %v, want %v", downAt, wantDetect)
	}
	if n.Drops[dropLinkDown] != 1 {
		t.Errorf("link-down drops = %d", n.Drops[dropLinkDown])
	}

	// Repair restores forwarding.
	n.RepairLink(l, 2*time.Second)
	n.Sim.At(3*time.Second, func() { n.Inject(a, testPacket(6, 64, 100)) })
	n.Sim.Run(4 * time.Second)
	if n.Delivered != 1 {
		t.Errorf("delivered after repair = %d", n.Delivered)
	}
}

func TestLoopGroundTruthAndExpiry(t *testing.T) {
	// Manual two-router loop: a routes dst to b, b routes dst to a.
	n, a, b, _ := buildPair(1e9, time.Millisecond, 64)
	dst := routing.MustParsePrefix("198.51.100.0/24")
	a.SetRoute(dst, b.ID)
	b.SetRoute(dst, a.ID)

	pkt := testPacket(7, 8, 100)
	pkt.IP.Dst = packet.MustParseAddr("198.51.100.1")
	tp := n.Inject(a, pkt)
	n.Sim.Run(time.Second)

	if tp.LoopCount == 0 || tp.LoopSize != 2 {
		t.Errorf("loop metadata: count=%d size=%d", tp.LoopCount, tp.LoopSize)
	}
	if n.Drops[DropTTLExpired] != 1 {
		t.Errorf("expiry drops = %d", n.Drops[DropTTLExpired])
	}
	if len(n.GroundTruth) == 0 {
		t.Fatal("no ground-truth events")
	}
	w := n.GroundTruthWindows(time.Minute)
	if len(w) != 1 || w[0].Prefix != dst || w[0].MaxLoopSize != 2 {
		t.Errorf("windows = %+v", w)
	}
	// Default fate filter retains looped packets.
	if len(n.Fates) != 1 || n.Fates[0].LoopCount == 0 {
		t.Errorf("looped fate not retained: %+v", n.Fates)
	}
}

func TestGroundTruthWindowsSplitByGap(t *testing.T) {
	n := NewNetwork()
	d := packet.MustParseAddr("198.51.100.9")
	n.recordLoop(groundTruthLoop{At: 0, Dst: d, LoopSize: 2})
	n.recordLoop(groundTruthLoop{At: time.Second, Dst: d, LoopSize: 2})
	n.recordLoop(groundTruthLoop{At: 10 * time.Second, Dst: d, LoopSize: 3})
	ws := n.GroundTruthWindows(2 * time.Second)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if ws[0].Events != 2 || ws[1].Events != 1 {
		t.Errorf("events split = %d/%d", ws[0].Events, ws[1].Events)
	}
}

func TestLineLoss(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	n.Connect(a, b, LinkParams{Bandwidth: 1e9, PropDelay: 0, QueueLimit: 1 << 20, LossRate: 0.1})
	dst := routing.MustParsePrefix("203.0.113.0/24")
	b.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	const total = 20000
	for i := 0; i < total; i++ {
		i := i
		n.Sim.At(time.Duration(i)*time.Microsecond, func() {
			n.Inject(a, testPacket(uint16(i), 64, 0))
		})
	}
	n.Sim.Run(time.Minute)
	lossRate := float64(n.Drops[dropLineError]) / total
	if lossRate < 0.08 || lossRate > 0.12 {
		t.Errorf("line loss rate = %v, want ~0.1", lossRate)
	}
}

func TestMinuteAccounting(t *testing.T) {
	n, a, _, _ := buildPair(1e9, time.Millisecond, 16)
	n.Sim.At(30*time.Second, func() { n.Inject(a, testPacket(1, 64, 10)) })
	n.Sim.At(90*time.Second, func() { n.Inject(a, testPacket(2, 64, 10)) })
	n.Sim.Run(2 * time.Minute)
	if len(n.Minutes) < 2 {
		t.Fatalf("minutes = %d", len(n.Minutes))
	}
	if n.Minutes[0].Injected != 1 || n.Minutes[1].Injected != 1 {
		t.Errorf("per-minute injected = %d/%d", n.Minutes[0].Injected, n.Minutes[1].Injected)
	}
}

func TestCleanMeanDelay(t *testing.T) {
	n, a, _, _ := buildPair(1e9, 5*time.Millisecond, 16)
	n.Inject(a, testPacket(1, 64, 0))
	n.Sim.Run(time.Second)
	if n.CleanDelivered != 1 {
		t.Fatalf("clean delivered = %d", n.CleanDelivered)
	}
	if d := n.CleanMeanDelay(); d < 5*time.Millisecond || d > 6*time.Millisecond {
		t.Errorf("clean mean delay = %v", d)
	}
}

func TestSetRouteToNonNeighborPanics(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
	n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
	defer func() {
		if recover() == nil {
			t.Error("SetRoute to non-neighbor did not panic")
		}
	}()
	a.SetRoute(routing.MustParsePrefix("0.0.0.0/0"), 1)
}

func TestLinkStringAndAccessors(t *testing.T) {
	n, _, _, l := buildPair(1e9, time.Millisecond, 16)
	if l.String() != "a->b" {
		t.Errorf("String = %q", l.String())
	}
	if !l.Up() {
		t.Error("fresh link down")
	}
	if l.inQueue != 0 {
		t.Error("fresh link queued")
	}
	n.FailLink(l, 0)
	n.Sim.Run(time.Second)
	if l.Up() {
		t.Error("failed link still up")
	}
}

func TestRouterAccessors(t *testing.T) {
	_, a, b, _ := buildPair(1e9, time.Millisecond, 16)
	if got := a.Links(); len(got) != 1 || got[0].To.ID != b.ID {
		t.Errorf("Links = %v", got)
	}
	if a.LinkTo(99) != nil {
		t.Error("LinkTo unknown returned a link")
	}
	if len(a.Links()) != 1 {
		t.Errorf("Links = %d", len(a.Links()))
	}
	ps := b.LocalPrefixes()
	if len(ps) != 1 || ps[0] != routing.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("LocalPrefixes = %v", ps)
	}
	rev0 := a.FIBRevision()
	a.RemoveRoute(routing.MustParsePrefix("203.0.113.0/24"))
	if a.FIBRevision() == rev0 {
		t.Error("FIB revision not bumped")
	}
	if _, ok := a.RouteVia(packet.MustParseAddr("203.0.113.1")); ok {
		t.Error("route still present after removal")
	}
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth Connect accepted")
		}
	}()
	n.Connect(a, b, LinkParams{})
}

func TestProcJitterDeterministicAndBounded(t *testing.T) {
	run := func() []Time {
		n := NewNetwork()
		n.FateFilter = func(*Fate) bool { return true }
		a := n.AddRouter("a", packet.MustParseAddr("10.0.0.1"))
		b := n.AddRouter("b", packet.MustParseAddr("10.0.0.2"))
		n.Connect(a, b, LinkParams{
			Bandwidth: 1e9, PropDelay: time.Millisecond,
			QueueLimit: 64, ProcJitter: 500 * time.Microsecond,
		})
		dst := routing.MustParsePrefix("203.0.113.0/24")
		b.AttachPrefix(dst)
		a.SetRoute(dst, b.ID)
		for i := 0; i < 50; i++ {
			i := i
			n.Sim.At(time.Duration(i)*10*time.Millisecond, func() {
				n.Inject(a, testPacket(uint16(i+1), 64, 100))
			})
		}
		n.Sim.Run(time.Second)
		var delays []Time
		for _, f := range n.Fates {
			delays = append(delays, f.Delay)
		}
		return delays
	}
	d1, d2 := run(), run()
	if len(d1) != 50 || len(d2) != 50 {
		t.Fatalf("deliveries: %d/%d", len(d1), len(d2))
	}
	base := time.Millisecond + time.Duration(float64(100+28)*8/1e9*float64(time.Second))
	distinct := map[Time]bool{}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, d1[i], d2[i])
		}
		j := d1[i] - base
		if j < 0 || j >= 500*time.Microsecond {
			t.Errorf("jitter out of bounds: %v", j)
		}
		distinct[d1[i]] = true
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct delays; jitter not spreading", len(distinct))
	}
}
