package traffic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"loopscope/internal/capture"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// sink builds a two-router network that delivers everything and
// returns the tapped link.
func sink(t *testing.T) (*netsim.Network, *netsim.Router, *capture.LinkTap, []routing.Prefix) {
	t.Helper()
	n := netsim.NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	lp := netsim.DefaultLinkParams()
	l := n.Connect(a, b, lp)
	a.AttachPrefix(routing.MustParsePrefix("10.10.0.0/16"))

	var dests []routing.Prefix
	for i := 0; i < 32; i++ {
		p := routing.NewPrefix(packet.AddrFrom(198, 51, byte(i), 0), 24)
		dests = append(dests, p)
		b.AttachPrefix(p)
		a.SetRoute(p, b.ID)
	}
	mc := routing.MustParsePrefix("224.0.0.0/4")
	b.AttachPrefix(mc)
	a.SetRoute(mc, b.ID)
	b.SetRoute(routing.MustParsePrefix("10.10.0.0/16"), a.ID)
	tap := capture.NewLinkTap(l, 40, nil, true)
	return n, a, tap, dests
}

func genConfig(a *netsim.Router, dests []routing.Prefix) traffic.Config {
	return traffic.Config{
		Mix:              traffic.DefaultMix(),
		PacketsPerSecond: 2000,
		Duration:         20 * time.Second,
		Ingresses:        []traffic.Ingress{{Router: a, Hosts: routing.MustParsePrefix("10.10.0.0/16")}},
		DestPrefixes:     dests,
		McastGroups:      []packet.Addr{packet.MustParseAddr("224.1.2.3")},
	}
}

func TestGeneratorMixFractions(t *testing.T) {
	n, a, tap, dests := sink(t)
	g := traffic.NewGenerator(n, genConfig(a, dests), stats.NewRNG(1))
	g.Start()
	n.Sim.Run(40 * time.Second)

	recs := tap.Records()
	if len(recs) < 20000 {
		t.Fatalf("only %d records", len(recs))
	}
	var counts [11]int
	for _, r := range recs {
		p, err := packet.Decode(r.Data)
		if err != nil {
			t.Fatalf("generated packet does not decode: %v", err)
		}
		m := packet.Classify(&p)
		for c := 0; c < 11; c++ {
			if m&(1<<c) != 0 {
				counts[c]++
			}
		}
	}
	total := float64(len(recs))
	count := func(class string) int { return counts[slices.Index(packet.ClassNames[:], class)] }
	frac := func(class string) float64 { return float64(count(class)) / total }

	if f := frac("TCP"); f < 0.78 {
		t.Errorf("TCP fraction = %.3f, want > 0.78", f)
	}
	if f := frac("UDP"); f < 0.05 || f > 0.18 {
		t.Errorf("UDP fraction = %.3f, want 0.05-0.18", f)
	}
	if f := frac("SYN"); f > 0.09 {
		t.Errorf("SYN fraction = %.3f, want small", f)
	}
	if f := frac("ICMP"); f <= 0 || f > 0.08 {
		t.Errorf("ICMP fraction = %.3f", f)
	}
	if count("MCAST") == 0 {
		t.Error("no multicast packets generated")
	}
	if count("OTHER") == 0 {
		t.Error("no other-protocol packets generated")
	}
	if count("RST") == 0 {
		t.Error("no RST packets generated")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() []trace.Record {
		n, a, tap, dests := sink(t)
		cfg := genConfig(a, dests)
		cfg.Duration = 5 * time.Second
		g := traffic.NewGenerator(n, cfg, stats.NewRNG(7))
		g.Start()
		n.Sim.Run(10 * time.Second)
		return tap.Records()
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Time != r2[i].Time || string(r1[i].Data) != string(r2[i].Data) {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestGeneratorIPIDsPerHost(t *testing.T) {
	n, a, tap, dests := sink(t)
	cfg := genConfig(a, dests)
	cfg.Duration = 10 * time.Second
	g := traffic.NewGenerator(n, cfg, stats.NewRNG(3))
	g.Start()
	n.Sim.Run(20 * time.Second)

	// Per source host, IP IDs must never repeat within a short trace
	// (the generator's counter wraps at 64k).
	seen := make(map[packet.Addr]map[uint16]bool)
	for _, r := range tap.Records() {
		p, err := packet.Decode(r.Data)
		if err != nil || p.IP.Src[0] != 10 {
			continue
		}
		m := seen[p.IP.Src]
		if m == nil {
			m = make(map[uint16]bool)
			seen[p.IP.Src] = m
		}
		if m[p.IP.ID] {
			t.Fatalf("host %v reused IP ID %d", p.IP.Src, p.IP.ID)
		}
		m[p.IP.ID] = true
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct source hosts", len(seen))
	}
}

func TestFlowsCompleteOnCleanNetwork(t *testing.T) {
	n, a, _, dests := sink(t)
	cfg := genConfig(a, dests)
	cfg.Duration = 10 * time.Second
	g := traffic.NewGenerator(n, cfg, stats.NewRNG(4))
	g.Start()
	n.Sim.Run(5 * time.Minute) // generous drain for slow flows

	if g.FlowsStarted == 0 {
		t.Fatal("no flows started")
	}
	if g.FlowsAborted > g.FlowsStarted/20 {
		t.Errorf("%d/%d flows aborted on a loss-free network", g.FlowsAborted, g.FlowsStarted)
	}
	done := g.FlowsOK + g.FlowsAborted
	if done < g.FlowsStarted*9/10 {
		t.Errorf("only %d/%d flows finished", done, g.FlowsStarted)
	}
}

func TestSynthesizeLoops(t *testing.T) {
	rng := stats.NewRNG(5)
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("198.51.101.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	cfg := traffic.SynthConfig{
		Duration:         30 * time.Second,
		PacketsPerSecond: 2000,
		Mix:              traffic.DefaultMix(),
		DestPrefixes:     dests,
		HopsMin:          3, HopsMax: 8,
		Loops: []traffic.LoopSpec{{
			Prefix: dests[2], Start: 10 * time.Second,
			Duration: 2 * time.Second, TTLDelta: 2,
			Revolution: 4 * time.Millisecond,
		}},
	}
	recs := traffic.Synthesize(cfg, rng)
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("synthesized trace invalid: %v", err)
	}
	if len(recs) < 40000 {
		t.Fatalf("only %d records", len(recs))
	}

	// Replica spacing inside the loop window must be exactly the
	// revolution for a given packet (same src/id).
	type key struct {
		src packet.Addr
		id  uint16
	}
	times := make(map[key][]time.Duration)
	ttls := make(map[key][]uint8)
	for _, r := range recs {
		p, err := packet.Decode(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if dests[2].Contains(p.IP.Dst) && r.Time >= 10*time.Second && r.Time < 12*time.Second {
			k := key{p.IP.Src, p.IP.ID}
			times[k] = append(times[k], r.Time)
			ttls[k] = append(ttls[k], p.IP.TTL)
		}
	}
	streams := 0
	for k, ts := range times {
		if len(ts) < 3 {
			continue
		}
		streams++
		for i := 1; i < len(ts); i++ {
			if ts[i]-ts[i-1] != 4*time.Millisecond {
				t.Fatalf("replica spacing %v, want exactly 4ms", ts[i]-ts[i-1])
			}
			if int(ttls[k][i-1])-int(ttls[k][i]) != 2 {
				t.Fatalf("TTL delta %d, want 2", int(ttls[k][i-1])-int(ttls[k][i]))
			}
		}
	}
	if streams == 0 {
		t.Fatal("no replica streams in the loop window")
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	dests := []routing.Prefix{routing.MustParsePrefix("198.51.100.0/24")}
	cfg := traffic.SynthConfig{
		Duration: 5 * time.Second, PacketsPerSecond: 1000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 8,
	}
	a := traffic.Synthesize(cfg, stats.NewRNG(9))
	b := traffic.Synthesize(cfg, stats.NewRNG(9))
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i].Time != b[i].Time || string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("diverges at %d", i)
		}
	}
}

// TestSynthesizeGolden pins the synthesizer's output byte for byte:
// the SHA-256 of the native-format encoding of four small seeded
// traces. The first three constants were taken before the replica heap
// was rewritten without container/heap, and the storm's before the
// heap came to order keys over a record arena, so they hold each
// rewrite to the same pops in the same order, ties included.
func TestSynthesizeGolden(t *testing.T) {
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("198.51.101.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	base := traffic.SynthConfig{
		Link:     "golden",
		Duration: 8 * time.Second, PacketsPerSecond: 400,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 8,
	}
	loop := func(p routing.Prefix, start, dur time.Duration, delta int, rev time.Duration) traffic.LoopSpec {
		return traffic.LoopSpec{Prefix: p, Start: start, Duration: dur, TTLDelta: delta, Revolution: rev}
	}
	loops, reused := base, base
	loops.Loops = []traffic.LoopSpec{
		loop(dests[0], 1*time.Second, 2*time.Second, 2, 4*time.Millisecond),
		loop(dests[2], 2*time.Second, 3*time.Second, 5, 7*time.Millisecond),
	}
	// One prefix looping three times, twice back to back, under a
	// second prefix's loop that spans them all: the heap holds replicas
	// of several loops at once.
	reused.SnapLen = 64
	reused.Loops = []traffic.LoopSpec{
		loop(dests[1], 1*time.Second, 1*time.Second, 3, 2*time.Millisecond),
		loop(dests[1], 2*time.Second, 1*time.Second, 2, 3*time.Millisecond),
		loop(dests[1], 5*time.Second, 2*time.Second, 4, 1*time.Millisecond),
		loop(dests[0], 500*time.Millisecond, 7*time.Second, 2, 5*time.Millisecond),
	}
	// Shaped like the bench's loop storm (bench/workloads.go): hundreds
	// of loops reusing the popular prefixes in disjoint slots with a gap
	// between them, deltas 2–6 and 40-byte snaps, so that the heap holds
	// the replica streams of many loops at once.
	storm := base
	storm.Duration, storm.PacketsPerSecond, storm.SnapLen = 12*time.Second, 2000, trace.DefaultSnapLen
	storm.DestPrefixes = make([]routing.Prefix, 64)
	for i := range storm.DestPrefixes {
		storm.DestPrefixes[i] = routing.NewPrefix(packet.AddrFromUint32(0xC0000000|uint32(i)<<8), 24)
	}
	pick := stats.NewRNG(14)
	deltas := []int{2, 2, 2, 3, 3, 4, 6}
	for r := 0; r < 8; r++ {
		for i := 0; i < 30; i++ {
			start := time.Duration(i)*400*time.Millisecond + time.Duration(pick.Intn(150))*time.Millisecond
			rev := time.Duration(300+pick.Intn(501)) * time.Microsecond
			storm.Loops = append(storm.Loops, loop(storm.DestPrefixes[r], start, 100*time.Millisecond, deltas[pick.Intn(len(deltas))], rev))
		}
	}
	for _, tc := range []struct {
		name string
		cfg  traffic.SynthConfig
		seed uint64
		want string
	}{
		{"background", base, 11, "b5dbbb4e292642e68b230c6e7dd1e06d5fd1b0c99525c93867e1c896c3f78ce8"},
		{"loops", loops, 12, "ad99b0f394bee3adc57dae48d3766e09a0324c178f0524d96c59c1b5d1558d05"},
		{"reused prefixes", reused, 13, "a646fe1c34169808fcf57520e7949d9ef0c13db5adc45397c82ba803098be046"},
		{"storm", storm, 15, "4d8ae4ee97819f300b2ba67cc79256d4af058f2b0e4ae76efb1763053d352d98"},
	} {
		sum := sha256.New()
		w, err := trace.NewWriter(sum, trace.Meta{Link: tc.cfg.Link, SnapLen: tc.cfg.SnapLen})
		if err != nil {
			t.Fatal(err)
		}
		traffic.SynthesizeStream(tc.cfg, stats.NewRNG(tc.seed), func(r trace.Record) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("%s: %d records hash to %s, want %s", tc.name, w.Count(), got, tc.want)
		}
	}
}
