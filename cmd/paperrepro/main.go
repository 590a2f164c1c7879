// Command paperrepro regenerates every table and figure of the paper
// ("Detection and Analysis of Routing Loops in Packet Traces", IMC
// 2002) from the simulated backbones, and prints the measured series
// next to the shape the paper reports.
//
// Usage:
//
//	paperrepro [-exp NAME] [-scale 0.5] [-csv DIR]
//
// Experiments: all, table1, table2, fig2..fig9, loss, delay, baseline,
// ablation, persistent, correlate, reorder, collateral, damping, dual,
// dvr. One full run simulates the four backbone traces once (in
// parallel, under a minute) and reuses them for every experiment; the
// extension experiments run their own dedicated scenarios.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/baseline"
	"loopscope/internal/capture"
	"loopscope/internal/core"
	"loopscope/internal/corr"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/routing/bgp"
	"loopscope/internal/routing/dvr"
	"loopscope/internal/routing/igp"
	"loopscope/internal/scenario"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// detect runs the unified detection engine over an in-memory trace.
// paperrepro takes the engine's default variant — parallel sharding
// when the host has the cores, sequential otherwise; the Result is
// identical either way. Config errors panic: every config here is a
// program constant, so one failing is a bug, not an input problem.
func detect(recs []trace.Record, cfg core.Config) *core.Result {
	e, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	if bo, ok := e.(core.BatchObserver); ok {
		bo.ObserveBatch(recs)
	} else {
		for _, r := range recs {
			e.Observe(r)
		}
	}
	return e.Finish()
}

type backboneRun struct {
	spec scenario.Spec
	bb   *scenario.Backbone
	recs []trace.Record
	res  *core.Result
	rep  *analysis.Report
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: all, table1, table2, fig2..fig9, loss, delay, baseline, ablation, persistent, correlate, reorder, collateral, damping")
		scale  = flag.Float64("scale", 1.0, "scale factor on durations and rates")
		csvDir = flag.String("csv", "", "also write every figure's series as CSV files into this directory")
	)
	flag.Parse()
	if err := run(*exp, *scale, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// simulateAll runs the four backbone simulations in parallel — they
// are independent and each is deterministic given its seed — and
// returns them in canonical order.
func simulateAll(scale float64) []*backboneRun {
	specs := scenario.PaperBackbones()
	runs := make([]*backboneRun, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		spec.Duration = time.Duration(float64(spec.Duration) * scale)
		spec.PacketsPerSecond *= scale
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			bb := scenario.Build(spec)
			bb.Run()
			recs := bb.Records()
			res := detect(recs, core.DefaultConfig())
			rep := analysis.Analyze(bb.Meta(), recs, res)
			fmt.Fprintf(os.Stderr, "simulated %s: %d packets, %d streams, %d loops (%v)\n",
				spec.Name, len(recs), rep.ReplicaStreams, rep.RoutingLoops,
				time.Since(start).Round(time.Millisecond))
			runs[i] = &backboneRun{spec: spec, bb: bb, recs: recs, res: res, rep: rep}
		}()
	}
	wg.Wait()
	return runs
}

func reports(runs []*backboneRun) []*analysis.Report {
	out := make([]*analysis.Report, len(runs))
	for i, r := range runs {
		out[i] = r.rep
	}
	return out
}

func run(exp string, scale float64, csvDir string) error {
	exp = strings.ToLower(exp)
	want := func(name string) bool { return exp == "all" || exp == name }

	known := map[string]bool{"all": true, "table1": true, "table2": true,
		"fig2": true, "fig3": true, "fig4": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "fig9": true,
		"loss": true, "delay": true, "baseline": true, "ablation": true,
		"persistent": true, "correlate": true, "reorder": true,
		"collateral": true, "damping": true, "dual": true, "dvr": true}
	if !known[exp] {
		return fmt.Errorf("unknown experiment %q", exp)
	}

	runs := simulateAll(scale)
	reps := reports(runs)
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		err := analysis.FigureCSVs(reps, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(csvDir, name))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote figure CSVs to %s\n", csvDir)
	}
	figure := map[string]analysis.Figure{}
	for _, f := range analysis.Figures {
		figure[f.Name] = f
	}
	section := func(title, paperShape string) {
		fmt.Println()
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(title)
		fmt.Println("paper shape:", paperShape)
		fmt.Println(strings.Repeat("-", 72))
	}

	// The paper's tables and figures, in the order it discusses them.
	for _, fig := range []struct{ name, title, shape string }{
		{"table1", "Table I", "four traces; backbone2 has a several-times-higher rate, so its looped count is similar absolutely but much smaller relatively"},
		{"fig2", "Figure 2", "TTL delta 2 is the mode everywhere; 5-10% of streams spread over deltas 3-8; backbone4 splits ~55%/35% between deltas 2 and 3"},
		{"fig3", "Figure 3", "jumps near 31 and 63 replicas (initial TTLs 64/128 with delta 2)"},
		{"fig4", "Figure 4", "backbones 1/2: ~90% under 8 ms; backbones 3/4: 65%/55% under 10 ms with tails to ~22 ms; larger deltas mean larger spacing"},
		{"fig5", "Figure 5", "TCP > 80% of packets, UDP 5-15%, SYN/FIN a few percent, small ICMP/MCAST/OTHER"},
		{"fig6", "Figure 6", "looped traffic over-represents SYNs (stalled handshakes keep retrying) and ICMP (pings towards unreachable destinations, time-exceeded)"},
		{"fig7", "Figure 7", "wide spectrum of destinations over time, concentrated in the historical class-C space"},
		{"fig8", "Figure 8", "most streams last under 500 ms; step pattern from TTL/delta; backbone4 shows three distinct steps (three dominant initial TTLs)"},
		{"table2", "Table II", "many replica streams merge into comparatively few routing loops"},
		{"fig9", "Figure 9", "~90% of loops under 10 s on backbones 3/4; backbones 1/2 carry a longer (BGP-driven) tail"},
	} {
		if !want(fig.name) {
			continue
		}
		section(fig.title, fig.shape)
		fmt.Print(figure[fig.name].Text(reps, 40)) // Figure 7: Backbone 4's first 40 streams
		switch fig.name {
		case "fig6":
			fmt.Println()
			syn, icmp := packet.ClassIndex(packet.ClassSYN), packet.ClassIndex(packet.ClassICMP)
			for _, r := range reps {
				fmt.Printf("%s: SYN looped/all = %.3f/%.3f (x%.1f), ICMP looped/all = %.3f/%.3f (x%.1f)\n",
					r.Link,
					r.LoopedClassFrac[syn], r.AllClassFrac[syn], ratio(r.LoopedClassFrac[syn], r.AllClassFrac[syn]),
					r.LoopedClassFrac[icmp], r.AllClassFrac[icmp], ratio(r.LoopedClassFrac[icmp], r.AllClassFrac[icmp]))
			}
			for _, r := range reps {
				if f := r.ReservedICMPFraction(); f > 0 {
					fmt.Printf("%s: %.2f%% of ICMP uses reserved type fields (the paper's anomalous host)\n", r.Link, 100*f)
				}
			}
		case "fig7":
			for _, r := range reps {
				fmt.Printf("%s: class-C fraction of replica streams = %.2f\n", r.Link, r.ClassCFraction())
			}
		}
	}
	if want("loss") {
		section("Loss impact (§VI)", "loop loss is small overall but contributes up to ~9% of a bad minute's packet loss")
		for _, r := range runs {
			fmt.Print(analysis.RenderLoss(r.spec.Name, analysis.AnalyzeLoss(r.bb.Net)))
		}
	}
	if want("delay") {
		section("Delay impact (§VI)", "1-10% of looping packets escape, gaining roughly 25-300 ms of delay")
		for _, r := range runs {
			fmt.Print(analysis.RenderDelay(r.spec.Name, analysis.AnalyzeDelay(r.bb.Net)))
			fmt.Printf("  detector-side: %d/%d streams classified escaped (%.1f%%)\n",
				r.rep.EscapedStreams, r.rep.ReplicaStreams, 100*r.rep.EscapeFraction())
		}
	}
	if want("ablation") {
		section("Ablation: merge window (§IV-A.3)", "1, 2 and 5 minute windows give about the same number of merged loops")
		fmt.Printf("%-12s", "window")
		for _, r := range runs {
			fmt.Printf("  %12s", r.spec.Name)
		}
		fmt.Println()
		for _, w := range []time.Duration{time.Minute, 2 * time.Minute, 5 * time.Minute} {
			fmt.Printf("%-12s", w)
			for _, r := range runs {
				cfg := core.DefaultConfig()
				cfg.MergeWindow = w
				res := detect(r.recs, cfg)
				fmt.Printf("  %12d", len(res.Loops))
			}
			fmt.Println()
		}
		fmt.Println()
		fmt.Println("Ablation: minimum replicas per stream (2 admits link-layer duplicates)")
		fmt.Printf("%-12s", "min")
		for _, r := range runs {
			fmt.Printf("  %12s", r.spec.Name)
		}
		fmt.Println()
		for _, m := range []int{2, 3, 4} {
			fmt.Printf("%-12d", m)
			for _, r := range runs {
				cfg := core.DefaultConfig()
				cfg.MinReplicas = m
				res := detect(r.recs, cfg)
				fmt.Printf("  %12d", len(res.Streams))
			}
			fmt.Println()
		}
		fmt.Println()
		fmt.Println("Ablation: prefix aggregation width for validation/merging")
		fmt.Printf("%-12s", "bits")
		for _, r := range runs {
			fmt.Printf("  %12s", r.spec.Name)
		}
		fmt.Println()
		for _, bits := range []int{16, 24, 32} {
			fmt.Printf("%-12d", bits)
			for _, r := range runs {
				cfg := core.DefaultConfig()
				cfg.PrefixBits = bits
				res := detect(r.recs, cfg)
				fmt.Printf("  %12d", len(res.Loops))
			}
			fmt.Println()
		}
	}
	if want("correlate") {
		section("Extension: loop-cause correlation (paper's future work)",
			"with routing data alongside the trace, every loop gets a cause and a healing FIB update")
		for _, r := range runs {
			rep := corr.Attribute(r.res.Loops, r.bb.Net.Journal, 2*time.Minute)
			fmt.Printf("--- %s (journal: %d events) ---\n", r.spec.Name, r.bb.Net.Journal.Len())
			fmt.Print(corr.Render(rep))
		}
	}
	if want("persistent") {
		section("Extension: persistent loops (paper's future work)",
			"misconfiguration loops never heal; classified by lifetime vs trace length")
		runPersistent(scale)
	}
	if want("dvr") {
		section("Extension: distance-vector count-to-infinity",
			"the textbook long loop: two RIP routers point at each other while metrics count to 16; split horizon kills it")
		runDVR()
	}
	if want("dual") {
		section("Extension: dual-vantage correlation",
			"two taps on one path see the same loop; the TTL offset between paired streams is the tap separation")
		runDual(scale)
	}
	if want("damping") {
		section("Extension: route-flap damping (section II-B remark)",
			"damping suppresses churn but withholds the final good route, extending the outage")
		runDamping()
	}
	if want("collateral") {
		section("Extension: collateral delay (section I claim)",
			"replica amplification raises utilization; on a busy link even never-looped traffic queues behind it")
		runCollateral(scale)
	}
	if want("reorder") {
		section("Extension: out-of-order delivery (paper's closing remark in paragraph VI)",
			"packets that escape a loop arrive after packets their sender emitted later")
		runReorder(scale)
	}
	if want("baseline") {
		section("Baseline: traceroute-style active probing (§III)", "sparse active probing misses transient loops the passive detector catches")
		runBaseline(scale)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runPersistent reruns backbone3 with a misconfigured prefix block and
// splits the detected loops by lifetime.
func runPersistent(scale float64) {
	spec := scenario.PaperBackbones()[2]
	spec.Duration = time.Duration(float64(spec.Duration) * scale)
	spec.PacketsPerSecond *= scale
	spec.PersistentPrefixes = 2
	bb := scenario.Build(spec)
	bb.Run()
	recs := bb.Records()
	res := detect(recs, core.DefaultConfig())
	var end time.Duration
	if n := len(recs); n > 0 {
		end = recs[n-1].Time
	}
	split := res.SplitPersistence(end, time.Minute, time.Minute)
	fmt.Printf("trace end %v: %d transient loops, %d persistent loops\n",
		end.Round(time.Second), len(split.Transient), len(split.Persistent))
	for _, l := range split.Persistent {
		fmt.Printf("  persistent: %-18s observed %v..%v (never healed), %d streams\n",
			l.Prefix, l.Start.Round(time.Second), l.End.Round(time.Second), len(l.Streams))
	}
}

// runDVR reproduces count-to-infinity under a RIP-style protocol and
// its suppression by split horizon with poisoned reverse.
func runDVR() {
	runOne := func(splitHorizon bool, seed uint64) (loops int, longest time.Duration, streams int) {
		n := netsim.NewNetwork()
		mk := func(name string, oct byte) *netsim.Router {
			return n.AddRouter(name, packet.AddrFrom(10, 0, 8, oct))
		}
		ing, a, b, c := mk("ing", 1), mk("a", 2), mk("b", 3), mk("c", 4)
		lp := netsim.DefaultLinkParams()
		n.Connect(ing, a, lp)
		mon := n.Connect(a, b, lp)
		bc := n.Connect(b, c, lp)
		dst := routing.MustParsePrefix("203.0.113.0/24")
		c.AttachPrefix(dst)
		ing.AttachPrefix(routing.MustParsePrefix("192.0.2.0/24"))

		cfg := dvr.DefaultConfig()
		cfg.SplitHorizon = splitHorizon
		cfg.Triggered = splitHorizon
		p := dvr.Attach(n, cfg, stats.NewRNG(seed))
		p.Start()
		n.Sim.Run(40 * time.Second)

		tap := capture.NewLinkTapOpts(mon, capture.Options{SnapLen: 40, Retain: true})
		for i := 0; i < 4000; i++ {
			i := i
			n.Sim.At(40*time.Second+time.Duration(i)*40*time.Millisecond, func() {
				n.Inject(ing, packet.Packet{
					IP: packet.IPv4Header{
						Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
						Src: packet.MustParseAddr("192.0.2.1"),
						Dst: packet.MustParseAddr("203.0.113.9"), ID: uint16(i + 1),
					},
					Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 1, DstPort: 2},
					HasTransport: true, PayloadLen: 32, PayloadSeed: uint64(i + 1),
				})
			})
		}
		n.FailLink(bc, 60*time.Second)
		n.Sim.Run(4 * time.Minute)
		res := detect(tap.Records(), core.DefaultConfig())
		for _, l := range res.Loops {
			if l.Duration() > longest {
				longest = l.Duration()
			}
			streams += len(l.Streams)
		}
		return len(res.Loops), longest, streams
	}
	l1, d1, s1 := runOne(false, 3)
	l2, d2, s2 := runOne(true, 3)
	fmt.Printf("%-26s %14s %14s\n", "", "no mitigations", "split horizon")
	fmt.Printf("%-26s %14d %14d\n", "detected loops", l1, l2)
	fmt.Printf("%-26s %14v %14v\n", "longest loop", d1.Round(time.Second), d2.Round(time.Second))
	fmt.Printf("%-26s %14d %14d\n", "replica streams", s1, s2)
}

// runDual runs the two-tap experiment and correlates the traces.
func runDual(scale float64) {
	dur := time.Duration(float64(3*time.Minute) * scale)
	if dur < 2*time.Minute {
		// Each fail/repair cycle needs ~50s; below two minutes the
		// schedule degenerates.
		dur = 2 * time.Minute
	}
	spec := scenario.Spec{
		Name:             "dual",
		Seed:             11,
		Duration:         dur,
		PacketsPerSecond: 700,
		StablePrefixes:   24,
		Pockets: []scenario.PocketSpec{
			{Delta: 3, Prefixes: 3, Failures: 4, RepairAfter: 25 * time.Second},
			{Delta: 4, Prefixes: 3, Failures: 3, RepairAfter: 25 * time.Second},
			{Delta: 5, Prefixes: 3, Failures: 3, RepairAfter: 25 * time.Second},
		},
	}
	d := scenario.BuildDual(spec)
	d.Run()
	m1, m2 := d.Records()
	resA := detect(m1, core.DefaultConfig())
	resB := detect(m2, core.DefaultConfig())
	fmt.Printf("upstream tap:   %d packets, %d streams, %d loops\n", len(m1), len(resA.Streams), len(resA.Loops))
	fmt.Printf("downstream tap: %d packets, %d streams, %d loops\n", len(m2), len(resB.Streams), len(resB.Loops))
	fmt.Print(analysis.RenderCrossLink(analysis.MatchCrossLink(resA, resB)))
}

// runDamping compares a flapping external prefix with and without
// route-flap damping: damping cuts BGP churn but keeps the (by then
// stable) route suppressed, turning seconds of flapping into a much
// longer blackhole — the §II-B trade-off made concrete.
func runDamping() {
	type outcome struct {
		messages  int
		delivered uint64
		noRoute   uint64
	}
	runOne := func(damping bool) outcome {
		n := netsim.NewNetwork()
		mk := func(name string, oct byte) *netsim.Router {
			r := n.AddRouter(name, packet.AddrFrom(10, 0, 9, oct))
			r.AttachPrefix(routing.NewPrefix(r.Loopback, 32))
			return r
		}
		border, ext := mk("border", 1), mk("ext", 2)
		n.Connect(border, ext, netsim.DefaultLinkParams())
		ipCfg := igp.Config{
			FloodHop:   igp.Fixed(10 * time.Millisecond),
			SPFHold:    igp.Fixed(50 * time.Millisecond),
			SPFCompute: igp.Fixed(10 * time.Millisecond),
			FIBUpdate:  igp.Fixed(20 * time.Millisecond),
		}
		ip := igp.Attach(n, ipCfg, stats.NewRNG(2))
		ip.Start()

		cfg := bgp.DefaultConfig()
		cfg.MRAI = routing.Fixed(100 * time.Millisecond)
		cfg.MsgDelay = routing.Fixed(20 * time.Millisecond)
		cfg.FIBUpdate = routing.Fixed(20 * time.Millisecond)
		if damping {
			cfg.Damping = bgp.DefaultDamping()
		}
		p := bgp.Attach(n, cfg, stats.NewRNG(3))
		p.AddSpeaker(border, 100)
		se := p.AddSpeaker(ext, 200)
		if err := p.Peer(border.ID, ext.ID); err != nil {
			panic(err)
		}
		dst := routing.MustParsePrefix("203.0.113.0/24")
		ext.AttachPrefix(dst)

		// Five flaps over five seconds, then stable.
		for i := 0; i < 5; i++ {
			at := time.Duration(i) * time.Second
			n.Sim.At(at, func() { se.Originate(dst) })
			n.Sim.At(at+500*time.Millisecond, func() { se.Withdraw(dst) })
		}
		n.Sim.At(5500*time.Millisecond, func() { se.Originate(dst) })

		// Probes throughout: delivered vs blackholed.
		for i := 0; i < 1200; i++ {
			i := i
			n.Sim.At(time.Duration(i)*100*time.Millisecond, func() {
				n.Inject(border, packet.Packet{
					IP: packet.IPv4Header{
						Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
						Src: packet.AddrFrom(192, 0, 2, 1),
						Dst: packet.AddrFrom(203, 0, 113, 7), ID: uint16(i + 1),
					},
					Kind: packet.KindUDP, UDP: packet.UDPHeader{SrcPort: 4, DstPort: 5},
					HasTransport: true, PayloadLen: 64, PayloadSeed: uint64(i),
				})
			})
		}
		n.Sim.Run(2 * time.Minute)
		return outcome{messages: p.Messages, delivered: n.Delivered,
			noRoute: n.Drops[netsim.DropNoRoute]}
	}

	off := runOne(false)
	on := runOne(true)
	fmt.Printf("%-22s %12s %12s\n", "", "no damping", "damping")
	fmt.Printf("%-22s %12d %12d\n", "bgp messages", off.messages, on.messages)
	fmt.Printf("%-22s %12d %12d\n", "probes delivered", off.delivered, on.delivered)
	fmt.Printf("%-22s %12d %12d\n", "probes blackholed", off.noRoute, on.noRoute)
	fmt.Println("(1200 probes at 10/s across a 5 s flap episode and its aftermath)")
}

// runCollateral runs a busy-link scenario (10 Mbps, ~60% offered
// load) where loop amplification pushes the monitored link into
// queueing, and compares never-looped delivery delay in loop-active
// minutes against quiet ones.
func runCollateral(scale float64) {
	spec := scenario.Spec{
		Name:             "busy-bb",
		Seed:             77,
		Duration:         time.Duration(float64(300*time.Second) * scale),
		PacketsPerSecond: 1700, // ~8 Mbps of ~10 Mbps capacity
		LinkBandwidth:    10e6,
		StablePrefixes:   16,
		Pockets: []scenario.PocketSpec{
			{Delta: 2, Prefixes: 4, Failures: 3, RepairAfter: 30 * time.Second},
			{Delta: 3, Prefixes: 4, Failures: 2, RepairAfter: 30 * time.Second},
		},
		RecordAllFates: true,
	}
	bb := scenario.Build(spec)
	bb.Run()
	res := detect(bb.Records(), core.DefaultConfig())
	rep := analysis.AnalyzeCollateral(bb.Net, res.Loops, 200*time.Millisecond)
	fmt.Print(analysis.RenderCollateral(spec.Name, rep))
}

// runReorder measures delivery reordering on a scenario tuned to make
// the (real but narrow) overtaking window visible: the packets caught
// in a loop escape only when the last stale router updates, one
// revolution after fresh traffic already switched to the backup path,
// so a dense UDP stream straddling that instant is delivered out of
// order.
func runReorder(scale float64) {
	mix := traffic.DefaultMix()
	mix.UDPFrac = 0.30
	mix.TCPFrac = 0.65
	mix.UDPStreamPackets = 80
	mix.UDPStreamGap = 6 * time.Millisecond
	spec := scenario.Spec{
		Name:             "reorder-bb",
		Seed:             404,
		Duration:         time.Duration(float64(240*time.Second) * scale),
		PacketsPerSecond: 2200,
		StablePrefixes:   24,
		PropDelay:        5 * time.Millisecond,
		Mix:              &mix,
		Pockets: []scenario.PocketSpec{
			{Delta: 2, Prefixes: 3, Failures: 3, RepairAfter: 25 * time.Second},
			{Delta: 3, Prefixes: 3, Failures: 3, RepairAfter: 25 * time.Second},
		},
		RecordAllFates: true,
	}
	bb := scenario.Build(spec)
	bb.Run()
	rep := analysis.AnalyzeReordering(bb.Net)
	fmt.Printf("delivered %d packets; %d reordered (%.4f%%), %.0f%% of the reordered had looped\n",
		rep.Delivered, rep.Reordered, 100*rep.ReorderFraction(), 100*rep.LoopShareOfReordering())
	if rep.Displacement.N() > 0 {
		fmt.Printf("displacement: p50=%.0f p90=%.0f packets; lateness p50=%.0fms\n",
			rep.Displacement.Quantile(0.5), rep.Displacement.Quantile(0.9),
			rep.MaxLatenessMs.Quantile(0.5))
	}
}

// runBaseline attaches a traceroute prober to a fresh backbone3-style
// run and compares its hit count with the passive detector's.
func runBaseline(scale float64) {
	spec := scenario.PaperBackbones()[2]
	spec.Duration = time.Duration(float64(spec.Duration) * scale)
	spec.PacketsPerSecond *= scale
	bb := scenario.Build(spec)

	var dsts []packet.Addr
	for i, p := range bb.DestPrefixes {
		if i%8 == 0 {
			dsts = append(dsts, packet.AddrFromUint32(p.Addr.Uint32()+7))
		}
	}
	pr := baseline.NewProber(bb.Net, bb.Net.Router(0), packet.MustParseAddr("10.10.255.254"),
		dsts, baseline.DefaultConfig())
	pr.Start(spec.Duration)

	bb.Run()
	recs := bb.Records()
	res := detect(recs, core.DefaultConfig())
	gt := bb.Net.GroundTruthWindows(time.Minute)

	fmt.Printf("ground-truth loop windows:          %d\n", len(gt))
	fmt.Printf("passive detector merged loops:      %d\n", len(res.Loops))
	fmt.Printf("active traceroutes completed:       %d (%d probes)\n", len(pr.Results), pr.ProbesSent)
	fmt.Printf("loops seen by active probing:       %d\n", pr.LoopsDetected())
}
