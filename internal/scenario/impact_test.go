package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"loopscope/internal/capture"
	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

func TestLossReport(t *testing.T) {
	n := netsim.NewNetwork()
	// Hand-populate minute buckets.
	mins := []netsim.MinuteBucket{
		{Injected: 1000, Delivered: 990},
		{Injected: 1000, Delivered: 900},
	}
	mins[0].Drops[netsim.DropNoRoute] = 10
	mins[1].Drops[netsim.DropTTLExpired] = 80
	mins[1].Drops[netsim.DropNoRoute] = 20
	mins[1].LoopDrops = 80
	n.Minutes = mins
	n.Injected = 2000

	lr := AnalyzeLoss(n)
	if len(lr.PerMinuteLoopShare) != 2 {
		t.Fatalf("minutes = %d", len(lr.PerMinuteLoopShare))
	}
	if lr.PerMinuteLoopShare[0] != 0 {
		t.Errorf("minute 0 share = %v", lr.PerMinuteLoopShare[0])
	}
	if got := lr.PerMinuteLoopShare[1]; got != 0.8 {
		t.Errorf("minute 1 share = %v, want 0.8", got)
	}
	if lr.MaxLoopShare != 0.8 {
		t.Errorf("max share = %v", lr.MaxLoopShare)
	}
	if lr.OverallLossRate != 110.0/2000 {
		t.Errorf("overall loss = %v", lr.OverallLossRate)
	}
	if lr.OverallLoopLossRate != 80.0/2000 {
		t.Errorf("loop loss = %v", lr.OverallLoopLossRate)
	}
	out := RenderLoss("x", lr)
	if !strings.Contains(out, "worst minute loop share 80.0%") {
		t.Errorf("render: %s", out)
	}
}

func TestDelayReportFromLoopScenario(t *testing.T) {
	// Build a real loop with escapes: a <-> b loop on dst that heals
	// while packets are still in flight, so late arrivals escape to c.
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	lp := netsim.DefaultLinkParams()
	lp.PropDelay = 5 * time.Millisecond
	n.Connect(a, b, lp)
	n.Connect(b, c, lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	c.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	b.SetRoute(dst, a.ID) // loop: b points back at a

	inject := func(at time.Duration, id uint16) {
		n.Sim.At(at, func() {
			n.Inject(a, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.AddrFrom(192, 0, 2, 1), Dst: packet.AddrFrom(203, 0, 113, 5), ID: id,
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
				HasTransport: true, PayloadLen: 64, PayloadSeed: uint64(id),
			})
		})
	}
	// The loop heals at 1.5 s. TTL 64 packets survive ~320 ms in the
	// loop, so packets entering early expire while those entering in
	// the final ~300 ms escape.
	for i := 0; i < 75; i++ {
		inject(time.Duration(i)*20*time.Millisecond, uint16(i+1))
	}
	n.Sim.At(1500*time.Millisecond, func() { b.SetRoute(dst, c.ID) })
	// Clean baseline traffic after the heal.
	for i := 0; i < 40; i++ {
		inject(2*time.Second+time.Duration(i)*10*time.Millisecond, uint16(100+i))
	}
	n.Sim.Run(5 * time.Second)

	dr := AnalyzeDelay(n)
	if dr.EscapedCount == 0 {
		t.Fatal("no packets escaped")
	}
	if dr.EscapeFraction <= 0 || dr.EscapeFraction >= 1 {
		t.Errorf("escape fraction = %v", dr.EscapeFraction)
	}
	if dr.CleanMeanDelay <= 0 {
		t.Error("no clean baseline delay")
	}
	if dr.ExtraDelayMs.N() != dr.EscapedCount {
		t.Error("extra-delay CDF size mismatch")
	}
	// Escapees looped for a while: extra delay must exceed one RTT. The
	// least q Quantile takes selects the smallest observation.
	if least := dr.ExtraDelayMs.Quantile(math.SmallestNonzeroFloat64); least < 10 {
		t.Errorf("min extra delay = %v ms, expected > 10", least)
	}
	out := RenderDelay("x", dr)
	if !strings.Contains(out, "extra delay of escapees") {
		t.Errorf("render: %s", out)
	}
}

func TestReorderingFromLoopEscape(t *testing.T) {
	// a <-> b loop healed mid-stream: early packets circle and either
	// die or escape late; packets sent after the heal sail through
	// and overtake the escapees.
	n := netsim.NewNetwork()
	n.FateFilter = func(*netsim.Fate) bool { return true }
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	lp := netsim.DefaultLinkParams()
	lp.PropDelay = 5 * time.Millisecond
	n.Connect(a, b, lp)
	n.Connect(b, c, lp)
	dst := routing.MustParsePrefix("203.0.113.0/24")
	c.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	b.SetRoute(dst, a.ID) // loop

	send := func(at time.Duration, id uint16) {
		n.Sim.At(at, func() {
			n.Inject(a, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.AddrFrom(192, 0, 2, 1), Dst: packet.AddrFrom(203, 0, 113, 5), ID: id,
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 5, DstPort: 6},
				HasTransport: true, PayloadLen: 32, PayloadSeed: uint64(id),
			})
		})
	}
	// Packets 1..30 during the loop (some escape at the heal), then
	// 31..60 cleanly afterwards.
	for i := 0; i < 30; i++ {
		send(time.Duration(i)*10*time.Millisecond, uint16(i+1))
	}
	n.Sim.At(295*time.Millisecond, func() { b.SetRoute(dst, c.ID) })
	for i := 30; i < 60; i++ {
		send(400*time.Millisecond+time.Duration(i)*10*time.Millisecond, uint16(i+1))
	}
	n.Sim.Run(5 * time.Second)

	rep := AnalyzeReordering(n)
	if rep.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if rep.Reordered == 0 {
		t.Fatal("no reordering despite loop escapees")
	}
	if rep.LoopShareOfReordering() < 0.99 {
		t.Errorf("loop share of reordering = %.2f, want ~1 (only escapees are late)",
			rep.LoopShareOfReordering())
	}
	if rep.ReorderFraction() <= 0 || rep.ReorderFraction() > 0.5 {
		t.Errorf("reorder fraction = %.3f", rep.ReorderFraction())
	}
	if rep.Displacement.N() != rep.Reordered {
		t.Error("displacement CDF size mismatch")
	}
	t.Logf("delivered=%d reordered=%d (%.1f%%), loop share %.0f%%, max displacement %.0f packets",
		rep.Delivered, rep.Reordered, 100*rep.ReorderFraction(),
		100*rep.LoopShareOfReordering(), rep.Displacement.Max())
}

func TestReorderingCleanNetworkIsZero(t *testing.T) {
	n := netsim.NewNetwork()
	n.FateFilter = func(*netsim.Fate) bool { return true }
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	n.Connect(a, b, netsim.DefaultLinkParams())
	dst := routing.MustParsePrefix("203.0.113.0/24")
	b.AttachPrefix(dst)
	a.SetRoute(dst, b.ID)
	for i := 0; i < 100; i++ {
		i := i
		n.Sim.At(time.Duration(i)*time.Millisecond, func() {
			n.Inject(a, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
					Src: packet.AddrFrom(192, 0, 2, 1), Dst: packet.AddrFrom(203, 0, 113, 5),
					ID: uint16(i + 1),
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 5, DstPort: 6},
				HasTransport: true, PayloadLen: 32, PayloadSeed: uint64(i),
			})
		})
	}
	n.Sim.Run(time.Second)
	rep := AnalyzeReordering(n)
	if rep.Reordered != 0 {
		t.Errorf("FIFO network reordered %d packets", rep.Reordered)
	}
}

func TestCollateralDelayOnBusyLink(t *testing.T) {
	// A 2 Mbps link at ~60% load; a 300 ms two-router loop multiplies
	// the looped packets' bytes ~30x, so clean traffic sharing the
	// link queues behind the replicas.
	n := netsim.NewNetwork()
	n.FateFilter = func(*netsim.Fate) bool { return true }
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	lp := netsim.LinkParams{Bandwidth: 2e6, PropDelay: time.Millisecond, QueueLimit: 512}
	mon := n.Connect(a, b, lp)
	n.Connect(b, c, lp)
	loopDst := routing.MustParsePrefix("203.0.113.0/24")
	cleanDst := routing.MustParsePrefix("198.51.100.0/24")
	c.AttachPrefix(loopDst)
	c.AttachPrefix(cleanDst)
	a.SetRoute(loopDst, b.ID)
	a.SetRoute(cleanDst, b.ID)
	b.SetRoute(loopDst, c.ID)
	b.SetRoute(cleanDst, c.ID)

	tap := capture.NewLinkTap(mon, 40, nil, true)

	inject := func(at time.Duration, dst packet.Addr, id uint16, ttl uint8) {
		n.Sim.At(at, func() {
			n.Inject(a, packet.Packet{
				IP: packet.IPv4Header{
					Version: 4, IHL: 5, TTL: ttl, Protocol: packet.ProtoUDP,
					Src: packet.AddrFrom(192, 0, 2, 1), Dst: dst, ID: id,
				},
				Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 5, DstPort: 6},
				HasTransport: true, PayloadLen: 700, PayloadSeed: uint64(id),
			})
		})
	}
	// Clean background: ~200 pps of 728-byte packets = ~1.2 Mbps for
	// 20 s.
	id := uint16(1)
	for at := time.Duration(0); at < 20*time.Second; at += 5 * time.Millisecond {
		inject(at, packet.AddrFrom(198, 51, 100, 9), id, 64)
		id++
	}
	// Traffic towards the loop prefix: modest, but each packet loops
	// ~30 times between a and b during the loop window.
	for at := 9 * time.Second; at < 11*time.Second; at += 25 * time.Millisecond {
		inject(at, packet.AddrFrom(203, 0, 113, 9), id, 64)
		id++
	}
	// The loop: b points the loop prefix back at a from 9.5s to 10.5s.
	n.Sim.At(9500*time.Millisecond, func() { b.SetRoute(loopDst, a.ID) })
	n.Sim.At(10500*time.Millisecond, func() { b.SetRoute(loopDst, c.ID) })
	n.Sim.Run(30 * time.Second)

	res := core.DetectRecords(tap.Records(), core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Fatal("loop not detected on the monitored link")
	}
	rep := AnalyzeCollateral(n, res.Loops, 200*time.Millisecond)
	if rep.InLoop.N() == 0 || rep.Quiet.N() == 0 {
		t.Fatalf("one side empty: in=%d quiet=%d", rep.InLoop.N(), rep.Quiet.N())
	}
	if infl := rep.inflation(); infl < 1.2 {
		t.Errorf("inflation = %.2f, want clean traffic visibly delayed during the loop", infl)
	}
	out := RenderCollateral("busy", rep)
	if !strings.Contains(out, "inflation") {
		t.Errorf("render: %s", out)
	}
}
