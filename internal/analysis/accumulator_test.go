package analysis_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/scenario"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// analyzeByMembership is Analyze as it was while the whole trace was in
// memory: walk the records, decode and classify each, and ask the
// per-record membership index whether it looped. The Accumulator answers
// the looped half from the validated streams instead and must agree.
func analyzeByMembership(meta trace.Meta, recs []trace.Record, res *core.Result) *analysis.Report {
	r := &analysis.Report{
		Link:              meta.Link,
		TotalPackets:      res.TotalPackets,
		LoopedPackets:     res.LoopedPackets,
		ReplicaStreams:    len(res.Streams),
		RoutingLoops:      len(res.Loops),
		TTLDelta:          stats.NewHistogram(),
		ICMPTypes:         stats.NewHistogram(),
		ReplicasPerStream: &stats.CDF{},
		SpacingMs:         &stats.CDF{},
		StreamDurationMs:  &stats.CDF{},
		LoopDurationSec:   &stats.CDF{},
		EscapeDelayMs:     &stats.CDF{},
	}
	if n := len(recs); n > 0 {
		r.Duration = recs[n-1].Time - recs[0].Time
	}
	membership := res.Membership()
	var wireBytes uint64
	var allCounts, loopCounts [analysis.NumClasses]int
	for i, rec := range recs {
		wireBytes += uint64(rec.WireLen)
		pkt, err := packet.Decode(rec.Data)
		if err != nil {
			continue
		}
		if pkt.Kind == packet.KindICMP && pkt.HasTransport {
			r.ICMPTypes.Add(int(pkt.ICMP.Type))
		}
		mask := packet.Classify(&pkt)
		looped := i < len(membership) && membership[i] >= 0
		for c := 0; c < analysis.NumClasses; c++ {
			if mask&(1<<c) != 0 {
				allCounts[c]++
				if looped {
					loopCounts[c]++
				}
			}
		}
	}
	if r.Duration > 0 {
		r.AvgBandwidthMbps = float64(wireBytes) * 8 / r.Duration.Seconds() / 1e6
	}
	for c := 0; c < analysis.NumClasses; c++ {
		if r.TotalPackets > 0 {
			r.AllClassFrac[c] = float64(allCounts[c]) / float64(r.TotalPackets)
		}
		if r.LoopedPackets > 0 {
			r.LoopedClassFrac[c] = float64(loopCounts[c]) / float64(r.LoopedPackets)
		}
	}
	for _, s := range res.Streams {
		r.TTLDelta.Add(s.TTLDelta())
		r.ReplicasPerStream.Add(float64(s.Count()))
		r.SpacingMs.Add(float64(s.MeanSpacing()) / float64(time.Millisecond))
		r.StreamDurationMs.Add(float64(s.Duration()) / float64(time.Millisecond))
		r.DestSeries = append(r.DestSeries, analysis.DestPoint{Time: s.Start(), Dst: s.Summary.Dst})
		if s.Escaped() {
			r.EscapedStreams++
			r.EscapeDelayMs.Add(float64(s.LoopDelay()) / float64(time.Millisecond))
		}
	}
	for _, l := range res.Loops {
		r.LoopDurationSec.Add(l.Duration().Seconds())
	}
	return r
}

// requireSameReport compares two reports field by field; floats must be
// equal, not close.
func requireSameReport(t *testing.T, label string, got, want *analysis.Report) {
	t.Helper()
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s = %v, want %v", label, g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// checkAccumulator detects over recs with one and with four workers and
// compares the Accumulator (fed record by record, and through Analyze)
// with the membership-indexed reference.
func checkAccumulator(t *testing.T, label string, meta trace.Meta, recs []trace.Record) (looped int) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		e, err := core.New(core.DefaultConfig(), core.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		acc := analysis.NewAccumulator(meta)
		for _, r := range recs {
			acc.Add(r)
			e.Observe(r)
		}
		res := e.Finish()
		want := analyzeByMembership(meta, recs, res)
		label := fmt.Sprintf("%s workers %d", label, workers)
		requireSameReport(t, label, acc.Finish(res), want)
		requireSameReport(t, label+" (Analyze)", analysis.Analyze(meta, recs, res), want)
		looped = res.LoopedPackets
	}
	return looped
}

// TestAccumulatorMatchesMembershipCount: counting looped packets per
// class from the validated streams gives exactly what asking every
// record's membership gave, on the paper scenarios and on synthesized
// traces full of what could tell the two apart — snapshots cut inside
// the transport header, ICMP with reserved types, a loop towards a
// multicast group.
func TestAccumulatorMatchesMembershipCount(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		dests := []routing.Prefix{
			routing.MustParsePrefix("198.51.100.0/24"),
			routing.MustParsePrefix("203.0.113.0/24"),
			routing.NewPrefix(packet.AddrFrom(224, 0, byte(seed), 0), 24),
			routing.MustParsePrefix("192.0.2.0/24"),
		}
		cfg := traffic.SynthConfig{
			Link: "synth", Duration: 12 * time.Second, PacketsPerSecond: 600,
			Mix: traffic.DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 8,
		}
		cfg.Mix.ICMPFrac = 0.2
		for i := 1; i <= 3; i++ {
			cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
				Prefix: dests[i], Start: time.Duration(1+3*i) * time.Second,
				Duration:   time.Duration(200+rng.Intn(800)) * time.Millisecond,
				TTLDelta:   2 + rng.Intn(3),
				Revolution: time.Duration(2+rng.Intn(5)) * time.Millisecond,
			})
		}
		recs := traffic.Synthesize(cfg, rng)
		// Mutations keyed on source and IP ID, which replicas share, so
		// a mutated packet still loops as one stream.
		short, reserved := 0, 0
		for i := range recs {
			ip, err := packet.DecodeIPv4(recs[i].Data)
			if err != nil {
				t.Fatal(err)
			}
			key := (ip.Src.Uint32() ^ uint32(ip.ID)) * 2654435761 >> 8
			data := append([]byte(nil), recs[i].Data...)
			if ip.Protocol == packet.ProtoICMP && key%3 == 0 {
				data[20] = 44 + byte(key%200) // a reserved ICMP type
				reserved++
			}
			if key%5 == 0 {
				data = data[:20+key/5%20] // 20..39 bytes: no, or half a, transport header
				short++
			}
			recs[i].Data = data
		}
		if short == 0 || reserved == 0 {
			t.Fatalf("seed %d: %d short snapshots, %d reserved ICMP types: the trace tests nothing", seed, short, reserved)
		}
		if checkAccumulator(t, fmt.Sprintf("synth seed %d", seed), trace.Meta{Link: "synth", SnapLen: 40}, recs) == 0 {
			t.Fatalf("seed %d: nothing looped", seed)
		}
	}

	if testing.Short() {
		t.Skip("the scenario presets take a simulation each")
	}
	for _, spec := range scenario.PaperBackbones() {
		spec.Duration /= 4 // the same mix and plenty of loops, at a quarter of the memory
		bb := scenario.Build(spec)
		bb.Run()
		if checkAccumulator(t, spec.Name, bb.Meta(), bb.Records()) == 0 {
			t.Errorf("%s: nothing looped", spec.Name)
		}
	}
}
