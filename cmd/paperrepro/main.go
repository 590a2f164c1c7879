// Command paperrepro regenerates every table and figure of the paper
// ("Detection and Analysis of Routing Loops in Packet Traces", IMC
// 2002) from the simulated backbones, and prints the measured series
// next to the shape the paper reports. It is the one regenerator:
// EXPERIMENTS.md quotes its output at scale 1, which
// testdata/all.golden holds.
//
// Usage:
//
//	paperrepro [-exp NAME] [-scale 1] [-csv DIR]
//
// `paperrepro -h` lists the experiments. One full run simulates the
// four backbone traces once (in parallel, under a minute) and reuses
// them for every experiment; the extension experiments run their own
// dedicated scenarios.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"loopscope/cmd/paperrepro/internal/baseline"
	"loopscope/cmd/paperrepro/internal/corr"
	"loopscope/cmd/paperrepro/internal/indicator"
	"loopscope/internal/agg"
	"loopscope/internal/analysis"
	"loopscope/internal/capture"
	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/routing/bgp"
	"loopscope/internal/routing/dvr"
	"loopscope/internal/routing/igp"
	"loopscope/internal/scenario"
	"loopscope/internal/serve"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
	"loopscope/pkg/loopscope"
)

// experiment is one section of the output: the -exp name that selects
// it, its title, the shape the paper reports, and what prints the
// measured side.
type experiment struct {
	name, title, shape string
	run                func(w io.Writer, s *session)
}

// experiments are every section, in the order `-exp all` prints them:
// the paper's tables and figures in the order it discusses them, then
// §VI, the ablations, the extensions and the baselines.
var experiments = []experiment{
	figure("table1", "Table I", "four traces; backbone2 has a several-times-higher rate, so its looped count is similar absolutely but much smaller relatively", nil),
	figure("fig2", "Figure 2", "TTL delta 2 is the mode everywhere; 5-10% of streams spread over deltas 3-8; backbone4 splits ~55%/35% between deltas 2 and 3", nil),
	figure("fig3", "Figure 3", "jumps near 31 and 63 replicas (initial TTLs 64/128 with delta 2)", nil),
	figure("fig4", "Figure 4", "backbones 1/2: ~90% under 8 ms; backbones 3/4: 65%/55% under 10 ms with tails to ~22 ms; larger deltas mean larger spacing", nil),
	figure("fig5", "Figure 5", "TCP > 80% of packets, UDP 5-15%, SYN/FIN a few percent, small ICMP/MCAST/OTHER", nil),
	figure("fig6", "Figure 6", "looped traffic over-represents SYNs (stalled handshakes keep retrying) and ICMP (pings towards unreachable destinations, time-exceeded)", overRepresentation),
	figure("fig7", "Figure 7", "wide spectrum of destinations over time, concentrated in the historical class-C space", func(w io.Writer, reps []*analysis.Report) {
		for _, r := range reps {
			fmt.Fprintf(w, "%s: class-C fraction of replica streams = %.2f\n", r.Link, r.ClassCFraction())
		}
	}),
	figure("fig8", "Figure 8", "most streams last under 500 ms; step pattern from TTL/delta; backbone4 shows three distinct steps (three dominant initial TTLs)", nil),
	figure("table2", "Table II", "many replica streams merge into comparatively few routing loops", nil),
	figure("fig9", "Figure 9", "~90% of loops under 10 s on backbones 3/4; backbones 1/2 carry a longer (BGP-driven) tail", nil),
	{"loss", "Loss impact (§VI)", "loop loss is small overall but contributes up to ~9% of a bad minute's packet loss", runLoss},
	{"delay", "Delay impact (§VI)", "1-10% of looping packets escape, gaining roughly 25-300 ms of delay", runDelay},
	{"ablation", "Ablation: merge window (§IV-A.3)", "1, 2 and 5 minute windows give about the same number of merged loops", runAblation},
	{"correlate", "Extension: loop-cause correlation (paper's future work)", "with routing data alongside the trace, every loop gets a cause and a healing FIB update", runCorrelate},
	{"persistent", "Extension: persistent loops (paper's future work)", "misconfiguration loops never heal; classified by lifetime vs trace length", runPersistent},
	{"dvr", "Extension: distance-vector count-to-infinity", "the textbook long loop: two RIP routers point at each other while metrics count to 16; split horizon kills it", runDVR},
	{"dual", "Extension: dual-vantage correlation", "two taps on one path see the same loop; the TTL offset between paired streams is the tap separation", runDual},
	{"damping", "Extension: route-flap damping (section II-B remark)", "damping suppresses churn but withholds the final good route, extending the outage", runDamping},
	{"collateral", "Extension: collateral delay (section I claim)", "replica amplification raises utilization; on a busy link even never-looped traffic queues behind it", runCollateral},
	{"reorder", "Extension: out-of-order delivery (paper's closing remark in paragraph VI)", "packets that escape a loop arrive after packets their sender emitted later", runReorder},
	{"baseline", "Baseline: traceroute-style active probing (§III)", "sparse active probing misses transient loops the passive detector catches", runBaseline},
	{"indicator", "Extension: ICMP surge indicator (§V-B suggestion)", "streams of ICMP traffic towards a looping prefix are a strong indication that a loop is in progress", runIndicator},
}

// detect runs the unified detection engine over an in-memory trace.
// paperrepro takes the engine's default variant — parallel sharding
// when the host has the cores, sequential otherwise; the Result is
// identical either way. Errors panic: every config here is a program
// constant and a slice source does not fail, so one failing is a bug,
// not an input problem.
func detect(recs []trace.Record, cfg core.Config) *core.Result {
	e, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	res, err := core.Run(e, trace.NewSliceSource(trace.Meta{}, recs))
	if err != nil {
		panic(err)
	}
	return res
}

type backboneRun struct {
	spec scenario.Spec
	bb   *scenario.Backbone
	recs []trace.Record
	res  *core.Result
}

// session is what every experiment reads: the scale, and the paper's
// four backbones simulated, detected and analysed once.
type session struct {
	scale float64
	runs  []*backboneRun
	reps  []*analysis.Report
}

func main() {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	var (
		exp    = flag.String("exp", "all", "experiment: "+strings.Join(names, ", "))
		scale  = flag.Float64("scale", 1.0, "scale factor on durations and rates")
		csvDir = flag.String("csv", "", "also write every figure's series as CSV files into this directory")
	)
	flag.Parse()
	if err := run(*exp, *scale, *csvDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// scaled returns spec with its duration and packet rate multiplied by
// scale.
func scaled(spec scenario.Spec, scale float64) scenario.Spec {
	spec.Duration = time.Duration(float64(spec.Duration) * scale)
	spec.PacketsPerSecond *= scale
	return spec
}

// simulate runs the four backbone simulations in parallel — they are
// independent and each is deterministic given its seed — and returns
// the session holding them in canonical order.
func simulate(scale float64) *session {
	specs := scenario.PaperBackbones()
	s := &session{scale: scale, runs: make([]*backboneRun, len(specs)), reps: make([]*analysis.Report, len(specs))}
	var wg sync.WaitGroup
	for i, spec := range specs {
		spec := scaled(spec, scale)
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
			s.runs[i] = &backboneRun{spec: spec, bb: bb, recs: recs, res: res}
			s.reps[i] = rep
		}()
	}
	wg.Wait()
	return s
}

// run checks exp and scale, then simulates the session at that scale
// and renders it.
func run(exp string, scale float64, csvDir string, w io.Writer) error {
	exp = strings.ToLower(exp)
	known := exp == "all"
	for _, e := range experiments {
		known = known || e.name == exp
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("scale %v: want a finite number above 0", scale)
	}
	return render(w, simulate(scale), exp, csvDir)
}

// render prints experiment exp ("all" for every one) of session s to w,
// and writes the figure CSVs into csvDir unless it is empty.
func render(w io.Writer, s *session, exp, csvDir string) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		err := analysis.FigureCSVs(s.reps, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(csvDir, name))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote figure CSVs to %s\n", csvDir)
	}
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			fmt.Fprintf(w, "\n%s\n%s\npaper shape: %s\n%s\n", strings.Repeat("=", 72), e.title, e.shape, strings.Repeat("-", 72))
			e.run(w, s)
		}
	}
	return nil
}

// figure is the experiment that prints the named entry of
// analysis.Figures (Figure 7 for Backbone 4's first 40 streams), then
// what extra adds unless it is nil.
func figure(name, title, shape string, extra func(io.Writer, []*analysis.Report)) experiment {
	return experiment{name, title, shape, func(w io.Writer, s *session) {
		for _, f := range analysis.Figures {
			if f.Name == name {
				fmt.Fprint(w, f.Text(s.reps, 40))
			}
		}
		if extra != nil {
			extra(w, s.reps)
		}
	}}
}

// overRepresentation follows Figure 6 with each trace's looped-to-all
// ratios of SYN and ICMP, then the share of ICMP with reserved types.
func overRepresentation(w io.Writer, reps []*analysis.Report) {
	fmt.Fprintln(w)
	syn, icmp := packet.ClassIndex(packet.ClassSYN), packet.ClassIndex(packet.ClassICMP)
	for _, r := range reps {
		fmt.Fprintf(w, "%s: SYN looped/all = %.3f/%.3f (x%.1f), ICMP looped/all = %.3f/%.3f (x%.1f)\n",
			r.Link,
			r.LoopedClassFrac[syn], r.AllClassFrac[syn], ratio(r.LoopedClassFrac[syn], r.AllClassFrac[syn]),
			r.LoopedClassFrac[icmp], r.AllClassFrac[icmp], ratio(r.LoopedClassFrac[icmp], r.AllClassFrac[icmp]))
	}
	for _, r := range reps {
		if f := r.ReservedICMPFraction(); f > 0 {
			fmt.Fprintf(w, "%s: %.2f%% of ICMP uses reserved type fields (the paper's anomalous host)\n", r.Link, 100*f)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runLoss(w io.Writer, s *session) {
	for _, r := range s.runs {
		fmt.Fprint(w, scenario.RenderLoss(r.spec.Name, scenario.AnalyzeLoss(r.bb.Net)))
	}
}

func runDelay(w io.Writer, s *session) {
	for i, r := range s.runs {
		rep := s.reps[i]
		fmt.Fprint(w, scenario.RenderDelay(r.spec.Name, scenario.AnalyzeDelay(r.bb.Net)))
		fmt.Fprintf(w, "  detector-side: %d/%d streams classified escaped (%.1f%%)\n",
			rep.EscapedStreams, rep.ReplicaStreams, 100*rep.EscapeFraction())
	}
}

// ablations are the detector parameters runAblation sweeps, each over
// three values: set applies a value to a config and returns its row
// label, and count reads the result the sweep reports.
var ablations = []struct {
	title, column string
	values        []int
	set           func(cfg *core.Config, v int) string
	count         func(*core.Result) int
}{
	{"", "window", []int{1, 2, 5}, func(cfg *core.Config, v int) string {
		cfg.MergeWindow = time.Duration(v) * time.Minute
		return cfg.MergeWindow.String()
	}, loops},
	{"Ablation: minimum replicas per stream (2 admits link-layer duplicates)", "min", []int{2, 3, 4},
		func(cfg *core.Config, v int) string { cfg.MinReplicas = v; return fmt.Sprint(v) }, streams},
	{"Ablation: prefix aggregation width for validation/merging", "bits", []int{16, 24, 32},
		func(cfg *core.Config, v int) string { cfg.PrefixBits = v; return fmt.Sprint(v) }, loops},
	{"Ablation: minimum TTL delta (1 admits NAT and load-balancer artefacts)", "delta", []int{1, 2, 3},
		func(cfg *core.Config, v int) string { cfg.MinTTLDelta = v; return fmt.Sprint(v) }, streams},
}

func loops(res *core.Result) int   { return len(res.Loops) }
func streams(res *core.Result) int { return len(res.Streams) }

// runAblation reruns detection on the four backbones once per value of
// each ablation, the merge window's under the section's own title.
func runAblation(w io.Writer, s *session) {
	for i, a := range ablations {
		if i > 0 {
			fmt.Fprintf(w, "\n%s\n", a.title)
		}
		fmt.Fprintf(w, "%-12s", a.column)
		for _, r := range s.runs {
			fmt.Fprintf(w, "  %12s", r.spec.Name)
		}
		fmt.Fprintln(w)
		for _, v := range a.values {
			cfg := core.DefaultConfig()
			fmt.Fprintf(w, "%-12s", a.set(&cfg, v))
			for _, r := range s.runs {
				fmt.Fprintf(w, "  %12d", a.count(detect(r.recs, cfg)))
			}
			fmt.Fprintln(w)
		}
	}
}

func runCorrelate(w io.Writer, s *session) {
	for _, r := range s.runs {
		rep := corr.Attribute(r.res.Loops, r.bb.Net.Journal, 2*time.Minute)
		fmt.Fprintf(w, "--- %s (journal: %d events) ---\n", r.spec.Name, r.bb.Net.Journal.Len())
		fmt.Fprint(w, corr.Render(rep))
	}
}

// runPersistent reruns backbone3 with a misconfigured prefix block and
// splits the detected loops by lifetime.
func runPersistent(w io.Writer, s *session) {
	spec := scaled(scenario.PaperBackbones()[2], s.scale)
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
	fmt.Fprintf(w, "trace end %v: %d transient loops, %d persistent loops\n",
		end.Round(time.Second), len(split.Transient), len(split.Persistent))
	for _, l := range split.Persistent {
		fmt.Fprintf(w, "  persistent: %-18s observed %v..%v (never healed), %d streams\n",
			l.Prefix, l.Start.Round(time.Second), l.End.Round(time.Second), len(l.Streams))
	}
}

// runDVR reproduces count-to-infinity under a RIP-style protocol and
// its suppression by split horizon with poisoned reverse.
func runDVR(w io.Writer, _ *session) {
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
	fmt.Fprintf(w, "%-26s %14s %14s\n", "", "no mitigations", "split horizon")
	fmt.Fprintf(w, "%-26s %14d %14d\n", "detected loops", l1, l2)
	fmt.Fprintf(w, "%-26s %14v %14v\n", "longest loop", d1.Round(time.Second), d2.Round(time.Second))
	fmt.Fprintf(w, "%-26s %14d %14d\n", "replica streams", s1, s2)
}

// runDual runs the two-tap experiment and correlates the traces the
// way a fleet does: each tap's loops go to the aggregator as one
// vantage's events, and the loops seen at both taps are the fleet
// loops attributed to both. The stream counts and the tap separation
// come from joining the two results on the packet identity.
func runDual(w io.Writer, s *session) {
	dur := time.Duration(float64(3*time.Minute) * s.scale)
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
	fmt.Fprintf(w, "upstream tap:   %d packets, %d streams, %d loops\n", len(m1), len(resA.Streams), len(resA.Loops))
	fmt.Fprintf(w, "downstream tap: %d packets, %d streams, %d loops\n", len(m2), len(resB.Streams), len(resB.Loops))

	a, err := agg.New(agg.Config{})
	if err != nil {
		panic(err)
	}
	defer a.Close()
	for tap, res := range map[string]*core.Result{"upstream": resA, "downstream": resB} {
		for i, l := range res.Loops {
			ev := loopscope.Event{ID: fmt.Sprint(i), Prefix: l.Prefix.String(), StartNs: int64(l.Start), EndNs: int64(l.End),
				TTLDelta: l.Streams[0].TTLDelta(), Idents: serve.LoopIdents(l)}
			if _, err := a.Ingest(agg.Observation{Vantage: tap, Event: ev}); err != nil {
				panic(err)
			}
		}
	}
	loops := make(map[string]int) // by attribution
	for _, fl := range a.FleetLoops() {
		loops[strings.Join(fl.Vantages, "+")]++
	}

	downstream := make(map[uint64]*core.ReplicaStream, len(resB.Streams))
	for _, s := range resB.Streams {
		downstream[s.Ident] = s
	}
	pairs := 0
	var offsets stats.IntHist // TTL offset of each pair: the router hops from tap to tap
	for _, sa := range resA.Streams {
		if sb, ok := downstream[sa.Ident]; ok {
			delete(downstream, sa.Ident)
			pairs++
			// The downstream tap may have missed the first revolution:
			// the offset counts modulo the loop's TTL decrement.
			d := sa.TTLDelta()
			offsets.Add(((int(sa.Replicas[0].TTL)-int(sb.Replicas[0].TTL))%d + d) % d)
		}
	}
	fmt.Fprintf(w, "Cross-link correlation:\n")
	fmt.Fprintf(w, "  streams seen at both taps: %d (only upstream %d, only downstream %d)\n",
		pairs, len(resA.Streams)-pairs, len(downstream))
	fmt.Fprintf(w, "  loops seen at both taps:   %d (only upstream %d, only downstream %d)\n",
		loops["downstream+upstream"], loops["upstream"], loops["downstream"])
	if pairs > 0 {
		fmt.Fprintf(w, "  inferred tap separation:   %d router hop(s) (modal TTL offset)\n", offsets.Mode())
	}
}

// runDamping compares a flapping external prefix with and without
// route-flap damping: damping cuts BGP churn but keeps the (by then
// stable) route suppressed, turning seconds of flapping into a much
// longer blackhole — the §II-B trade-off made concrete.
func runDamping(w io.Writer, _ *session) {
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
	fmt.Fprintf(w, "%-22s %12s %12s\n", "", "no damping", "damping")
	fmt.Fprintf(w, "%-22s %12d %12d\n", "bgp messages", off.messages, on.messages)
	fmt.Fprintf(w, "%-22s %12d %12d\n", "probes delivered", off.delivered, on.delivered)
	fmt.Fprintf(w, "%-22s %12d %12d\n", "probes blackholed", off.noRoute, on.noRoute)
	fmt.Fprintln(w, "(1200 probes at 10/s across a 5 s flap episode and its aftermath)")
}

// runCollateral runs a busy-link scenario (10 Mbps, ~60% offered
// load) where loop amplification pushes the monitored link into
// queueing, and compares never-looped delivery delay in loop-active
// minutes against quiet ones.
func runCollateral(w io.Writer, s *session) {
	spec := scenario.Spec{
		Name:             "busy-bb",
		Seed:             77,
		Duration:         time.Duration(float64(300*time.Second) * s.scale),
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
	rep := scenario.AnalyzeCollateral(bb.Net, res.Loops, 200*time.Millisecond)
	fmt.Fprint(w, scenario.RenderCollateral(spec.Name, rep))
}

// runReorder measures delivery reordering on a scenario tuned to make
// the (real but narrow) overtaking window visible: the packets caught
// in a loop escape only when the last stale router updates, one
// revolution after fresh traffic already switched to the backup path,
// so a dense UDP stream straddling that instant is delivered out of
// order.
func runReorder(w io.Writer, s *session) {
	mix := traffic.DefaultMix()
	mix.UDPFrac = 0.30
	mix.TCPFrac = 0.65
	mix.UDPStreamPackets = 80
	mix.UDPStreamGap = 6 * time.Millisecond
	spec := scenario.Spec{
		Name:             "reorder-bb",
		Seed:             404,
		Duration:         time.Duration(float64(240*time.Second) * s.scale),
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
	rep := scenario.AnalyzeReordering(bb.Net)
	fmt.Fprintf(w, "delivered %d packets; %d reordered (%.4f%%), %.0f%% of the reordered had looped\n",
		rep.Delivered, rep.Reordered, 100*rep.ReorderFraction(), 100*rep.LoopShareOfReordering())
	if rep.Displacement.N() > 0 {
		fmt.Fprintf(w, "displacement: p50=%.0f p90=%.0f packets; lateness p50=%.0fms\n",
			rep.Displacement.Quantile(0.5), rep.Displacement.Quantile(0.9),
			rep.MaxLatenessMs.Quantile(0.5))
	}
}

// runBaseline attaches a traceroute prober to a fresh backbone3-style
// run and compares its hit count with the passive detector's.
func runBaseline(w io.Writer, s *session) {
	spec := scaled(scenario.PaperBackbones()[2], s.scale)
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

	fmt.Fprintf(w, "ground-truth loop windows:          %d\n", len(gt))
	fmt.Fprintf(w, "passive detector merged loops:      %d\n", len(res.Loops))
	fmt.Fprintf(w, "active traceroutes completed:       %d (%d probes)\n", len(pr.Results), pr.ProbesSent)
	fmt.Fprintf(w, "loops seen by active probing:       %d\n", pr.LoopsDetected())
}

// runIndicator runs the ICMP surge indicator and the detector over the
// indicator's ping-heavy scenario and scores the alarms against the
// detected loops at /16, with the 30 s slack the clients' TCP retry
// ladders call for.
func runIndicator(w io.Writer, _ *session) {
	spec := indicator.Scenario()
	bb := scenario.Build(spec)
	bb.Run()
	recs := bb.Records()
	res := detect(recs, core.DefaultConfig())
	ind := indicator.New(indicator.DefaultConfig())
	for _, r := range recs {
		ind.Observe(r)
	}
	alarms := ind.Finish()
	for _, a := range alarms {
		fmt.Fprintf(w, "alarm %-18s %v..%v  peak %d ICMP pkts/window\n",
			a.Prefix, a.Start.Round(time.Second), a.End.Round(time.Second), a.Peak)
	}
	ev := indicator.Evaluate(alarms, res.Loops, 30*time.Second, 16)
	fmt.Fprintf(w, "%d alarms for %d detected loops: recall %.2f, precision %.2f at /16; alarm start - loop onset: median %+.1fs\n",
		ev.Alarms, ev.Loops, ev.Recall(), ev.Precision(), ev.MedianLeadMs/1000)
	fmt.Fprintf(w, "indicator inspected %d ICMP records of %d (%.1f%% of the link)\n",
		ind.ICMPSeen, len(recs), 100*float64(ind.ICMPSeen)/float64(len(recs)))
}
