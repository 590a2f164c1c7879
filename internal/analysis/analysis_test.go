package analysis_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/capture"
	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// detected builds a small synthetic trace with one known loop and runs
// detection.
func detected(t *testing.T) (trace.Meta, []trace.Record, *core.Result) {
	t.Helper()
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	cfg := traffic.SynthConfig{
		Link:             "test-link",
		Duration:         30 * time.Second,
		PacketsPerSecond: 1000,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3, HopsMax: 8,
		Loops: []traffic.LoopSpec{{
			Prefix: dests[1], Start: 10 * time.Second,
			Duration: 1500 * time.Millisecond, TTLDelta: 2,
			Revolution: 4 * time.Millisecond,
		}},
	}
	recs := traffic.Synthesize(cfg, stats.NewRNG(21))
	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Streams) == 0 {
		t.Fatal("setup produced no streams")
	}
	return trace.Meta{Link: "test-link", SnapLen: 40}, recs, res
}

func TestAnalyzeReport(t *testing.T) {
	meta, recs, res := detected(t)
	rep := analysis.Analyze(meta, recs, res)

	if rep.Link != "test-link" {
		t.Errorf("link = %q", rep.Link)
	}
	if rep.TotalPackets != len(recs) {
		t.Errorf("total = %d, want %d", rep.TotalPackets, len(recs))
	}
	if rep.LoopedPackets != res.LoopedPackets {
		t.Errorf("looped = %d, want %d", rep.LoopedPackets, res.LoopedPackets)
	}
	if rep.ReplicaStreams != len(res.Streams) || rep.RoutingLoops != len(res.Loops) {
		t.Error("stream/loop counts mismatch")
	}
	if rep.Duration <= 25*time.Second {
		t.Errorf("duration = %v", rep.Duration)
	}
	if rep.AvgBandwidthMbps <= 0 {
		t.Error("bandwidth not computed")
	}
	// Every stream in this trace has TTL delta 2.
	if rep.TTLDelta.Mode() != 2 {
		t.Errorf("TTL delta mode = %d", rep.TTLDelta.Mode())
	}
	if rep.TTLDelta.Fraction(2) != 1 {
		t.Errorf("delta-2 fraction = %v", rep.TTLDelta.Fraction(2))
	}
	// Spacing is exactly 4 ms by construction.
	if got := rep.SpacingMs.Quantile(0.5); got < 3.99 || got > 4.01 {
		t.Errorf("median spacing = %v ms", got)
	}
	// All-traffic mix: mostly TCP.
	if rep.AllClassFrac[packet.ClassIndex(packet.ClassTCP)] < 0.5 {
		t.Error("TCP fraction implausible")
	}
	// Dest series points at the looping /24.
	if len(rep.DestSeries) != rep.ReplicaStreams {
		t.Errorf("dest series = %d points", len(rep.DestSeries))
	}
	for _, p := range rep.DestSeries {
		if !routing.MustParsePrefix("203.0.113.0/24").Contains(p.Dst) {
			t.Errorf("dest %v outside loop prefix", p.Dst)
		}
	}
	if rep.ClassCFraction() != 1 {
		t.Errorf("class-C fraction = %v, want 1", rep.ClassCFraction())
	}
	if rep.LoopDurationSec.N() != len(res.Loops) {
		t.Error("loop duration CDF size mismatch")
	}
}

func TestRenderersContainSeries(t *testing.T) {
	meta, recs, res := detected(t)
	rep := analysis.Analyze(meta, recs, res)
	reps := []*analysis.Report{rep}

	wants := map[string][]string{
		"table1": {"Table I", "test-link", "looped packets"},
		"table2": {"Table II", "replica streams", "routing loops"},
		"fig2":   {"Figure 2", "ttl delta"},
		"fig3":   {"Figure 3", "size [packets]"},
		"fig4":   {"Figure 4", "spacing [ms]"},
		"fig5":   {"Figure 5", "TCP", "MCAST"},
		"fig6":   {"Figure 6", "SYN"},
		"fig7":   {"Figure 7", "destination"},
		"fig8":   {"Figure 8", "duration [ms]"},
		"fig9":   {"Figure 9", "duration [s]"},
	}
	var fig7 analysis.Figure
	for _, f := range analysis.Figures {
		out := f.Text(reps, 5)
		for _, w := range wants[f.Name] {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", f.Name, w, out)
			}
		}
		delete(wants, f.Name)
		if f.Name == "fig7" {
			fig7 = f
		}
	}
	if len(wants) != 0 {
		t.Errorf("Figures lacks %v", wants)
	}

	// Figure 7 row limiting.
	full := fig7.Text(reps, 0)
	limited := fig7.Text(reps, 1)
	if len(limited) >= len(full) && rep.ReplicaStreams > 1 {
		t.Error("maxRows did not limit output")
	}
}

func TestRenderTTLDelta(t *testing.T) {
	rep := &analysis.Report{TTLDelta: &stats.IntHist{}}
	for _, d := range []int{2, 5, 2, 2} {
		rep.TTLDelta.Add(d)
	}
	out := analysis.RenderTTLDelta(rep)
	for _, w := range []string{"ttl delta", "2             0.7500", "5             0.2500", "#"} {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q:\n%s", w, out)
		}
	}
}

func TestLossReport(t *testing.T) {
	n := netsim.NewNetwork()
	// Hand-populate minute buckets.
	mins := []netsim.MinuteBucket{
		{Injected: 1000, Delivered: 990},
		{Injected: 1000, Delivered: 900},
	}
	mins[0].Drops[netsim.DropLineError] = 10
	mins[1].Drops[netsim.DropTTLExpired] = 80
	mins[1].Drops[netsim.DropLineError] = 20
	mins[1].LoopDrops = 80
	n.Minutes = mins
	n.Injected = 2000

	lr := analysis.AnalyzeLoss(n)
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
	out := analysis.RenderLoss("x", lr)
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

	dr := analysis.AnalyzeDelay(n)
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
	// Escapees looped for a while: extra delay must exceed one RTT.
	if dr.ExtraDelayMs.Min() < 10 {
		t.Errorf("min extra delay = %v ms, expected > 10", dr.ExtraDelayMs.Min())
	}
	out := analysis.RenderDelay("x", dr)
	if !strings.Contains(out, "extra delay of escapees") {
		t.Errorf("render: %s", out)
	}
}

func TestEscapeFractionBounds(t *testing.T) {
	meta, recs, res := detected(t)
	rep := analysis.Analyze(meta, recs, res)
	f := rep.EscapeFraction()
	if f < 0 || f > 1 {
		t.Errorf("escape fraction = %v", f)
	}
	var empty analysis.Report
	if empty.EscapeFraction() != 0 {
		t.Error("empty report escape fraction != 0")
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

	rep := analysis.AnalyzeReordering(n)
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
	rep := analysis.AnalyzeReordering(n)
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
	rep := analysis.AnalyzeCollateral(n, res.Loops, 200*time.Millisecond)
	if rep.InLoop.N() == 0 || rep.Quiet.N() == 0 {
		t.Fatalf("one side empty: in=%d quiet=%d", rep.InLoop.N(), rep.Quiet.N())
	}
	if infl := rep.Inflation(); infl < 1.2 {
		t.Errorf("inflation = %.2f, want clean traffic visibly delayed during the loop", infl)
	}
	out := analysis.RenderCollateral("busy", rep)
	if !strings.Contains(out, "inflation") {
		t.Errorf("render: %s", out)
	}
}

func TestCSVExports(t *testing.T) {
	meta, recs, res := detected(t)
	rep := analysis.Analyze(meta, recs, res)
	reps := []*analysis.Report{rep, rep, rep, rep} // fig7 needs index 3

	files := map[string]*strings.Builder{}
	err := analysis.FigureCSVs(reps, func(name string) (io.WriteCloser, error) {
		b := &strings.Builder{}
		files[name] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig2_ttl_delta.csv", "fig3_replicas_cdf.csv", "fig4_spacing_cdf.csv",
		"fig5_all_classes.csv", "fig6_looped_classes.csv",
		"fig8_stream_duration_cdf.csv", "fig9_loop_duration_cdf.csv",
		"fig7_destinations.csv",
	}
	for _, name := range want {
		b, ok := files[name]
		if !ok {
			t.Errorf("%s not written", name)
			continue
		}
		out := b.String()
		if !strings.Contains(out, "test-link") && name != "fig7_destinations.csv" {
			t.Errorf("%s missing link column:\n%s", name, out)
		}
		if strings.Count(out, "\n") < 2 {
			t.Errorf("%s has no data rows", name)
		}
	}
	// Spot check figure 2 content: delta 2 row with fraction 1.
	if !strings.Contains(files["fig2_ttl_delta.csv"].String(), "2,1.0000") {
		t.Errorf("fig2 csv content:\n%s", files["fig2_ttl_delta.csv"].String())
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestICMPTypeHistogram(t *testing.T) {
	meta, recs, res := detected(t)
	rep := analysis.Analyze(meta, recs, res)
	if rep.ICMPTypes.N == 0 {
		t.Fatal("no ICMP types recorded")
	}
	if rep.ICMPTypes.Counts[packet.ICMPEchoRequest] == 0 {
		t.Error("echo requests missing from type histogram")
	}
	if f := rep.ReservedICMPFraction(); f != 0 {
		t.Errorf("reserved fraction = %v on a clean trace", f)
	}
}
