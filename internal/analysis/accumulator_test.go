package analysis

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

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
func analyzeByMembership(meta trace.Meta, recs []trace.Record, res *core.Result) *Report {
	r := &Report{
		Link:              meta.Link,
		TotalPackets:      res.TotalPackets,
		LoopedPackets:     res.LoopedPackets,
		ReplicaStreams:    len(res.Streams),
		RoutingLoops:      len(res.Loops),
		TTLDelta:          &stats.IntHist{},
		ICMPTypes:         &stats.IntHist{},
		ReplicasPerStream: &stats.CDF{},
		SpacingMs:         &stats.CDF{},
		StreamDurationMs:  &stats.CDF{},
		LoopDurationSec:   &stats.CDF{},
		EscapeDelayMs:     &stats.CDF{},
	}
	if n := len(recs); n > 0 {
		r.Duration = recs[n-1].Time - recs[0].Time
	}
	membership := make([]int32, res.TotalPackets)
	for i := range membership {
		membership[i] = -1
	}
	for _, s := range res.Streams {
		for _, rep := range s.Replicas {
			membership[rep.Index] = int32(s.ID)
		}
	}
	var wireBytes uint64
	var allCounts, loopCounts [numClasses]int
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
		for c := 0; c < numClasses; c++ {
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
	for c := 0; c < numClasses; c++ {
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
		r.DestSeries = append(r.DestSeries, destPoint{Time: s.Start(), Dst: s.Summary.Dst})
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
func requireSameReport(t *testing.T, label string, got, want *Report) {
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
		acc := NewAccumulator(meta)
		for _, r := range recs {
			acc.Add(r)
			e.Observe(r)
		}
		res := e.Finish()
		want := analyzeByMembership(meta, recs, res)
		label := fmt.Sprintf("%s workers %d", label, workers)
		requireSameReport(t, label, acc.Finish(res), want)
		requireSameReport(t, label+" (Analyze)", Analyze(meta, recs, res), want)
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

// tallyRecords frames arbitrary bytes as records: a length byte (mod
// 72), then that many bytes of capture, cut short at the end.
func tallyRecords(data []byte) []trace.Record {
	var recs []trace.Record
	for len(data) > 0 {
		n := min(int(data[0])%72, len(data)-1)
		recs = append(recs, trace.Record{Time: time.Duration(len(recs)) * time.Millisecond,
			WireLen: 100, Data: data[1 : 1+n]})
		data = data[1+n:]
	}
	return recs
}

// tallySeed frames captures for tallyRecords.
func tallySeed(caps ...[]byte) []byte {
	var out []byte
	for _, c := range caps {
		out = append(append(out, byte(len(c))), c...)
	}
	return out
}

// header returns an n-byte capture: version and IHL vihl, protocol
// proto, the first destination byte dst0, and 0x3f in every byte past
// the twentieth, so a captured TCP header has every flag set and an
// ICMP header type 63.
func header(n int, vihl, proto, dst0 byte) []byte {
	b := make([]byte, n)
	if n > 0 {
		b[0] = vihl
	}
	if n > 9 {
		b[9] = proto
	}
	if n > 16 {
		b[16] = dst0
	}
	for i := 20; i < n; i++ {
		b[i] = 0x3f
	}
	return b
}

// FuzzAccumulatorMatchesDecode: for any record bytes, the Accumulator's
// class fractions and ICMP-type tally are those of packet.Decode and
// packet.Classify on every record, which Add no longer calls.
func FuzzAccumulatorMatchesDecode(f *testing.F) {
	for _, caps := range [][][]byte{
		{header(0, 0, 0, 0), header(1, 0x45, 0, 0), header(19, 0x45, 6, 10)},
		{header(40, 0x65, 6, 10), header(40, 0x44, 6, 10), header(40, 0x4f, 6, 10), header(60, 0x4f, 6, 224)},
		{header(39, 0x45, 6, 10), header(40, 0x45, 6, 10), header(64, 0x46, 6, 10), header(43, 0x46, 6, 10)},
		{header(27, 0x45, 1, 10), header(28, 0x45, 1, 10), header(40, 0x45, 17, 10)},
		{header(40, 0x45, 6, 224), header(20, 0x45, 1, 239), header(40, 0x45, 0, 10), header(40, 0x45, 255, 240)},
	} {
		f.Add(tallySeed(caps...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := tallyRecords(data)
		acc := NewAccumulator(trace.Meta{})
		var counts [numClasses]int
		icmp := &stats.IntHist{}
		for _, r := range recs {
			acc.Add(r)
			pkt, err := packet.Decode(r.Data)
			if err != nil {
				continue
			}
			if pkt.Kind == packet.KindICMP && pkt.HasTransport {
				icmp.Add(int(pkt.ICMP.Type))
			}
			for c, mask := 0, packet.Classify(&pkt); c < numClasses; c++ {
				if mask&(1<<c) != 0 {
					counts[c]++
				}
			}
		}
		got := acc.Finish(&core.Result{TotalPackets: len(recs)})
		for c, n := range counts {
			if want := float64(n) / float64(max(len(recs), 1)); got.AllClassFrac[c] != want {
				t.Errorf("class %s: fraction %v, want %v", packet.ClassNames[c], got.AllClassFrac[c], want)
			}
		}
		if !reflect.DeepEqual(got.ICMPTypes, icmp) {
			t.Errorf("ICMP types %v, want %v", got.ICMPTypes, icmp)
		}
	})
}

// TestShortSnapsAreParseErrors: a capture under 20 bytes, or one whose
// IHL runs past the capture, is a parse error to the detector — counted,
// never keyed, so a train of such copies towards a looping /24 neither
// forms a stream nor refutes the loop — and to the accumulator a record
// with wire bytes and a time but no class.
func TestShortSnapsAreParseErrors(t *testing.T) {
	loop := routing.MustParsePrefix("198.51.100.0/24")
	cfg := traffic.SynthConfig{
		Link: "synth", Duration: 4 * time.Second, PacketsPerSecond: 500, Mix: traffic.DefaultMix(),
		DestPrefixes: []routing.Prefix{loop, routing.MustParsePrefix("203.0.113.0/24")}, HopsMin: 3, HopsMax: 8,
		Loops: []traffic.LoopSpec{{Prefix: loop, Start: 2 * time.Second, Duration: time.Second,
			TTLDelta: 2, Revolution: 3 * time.Millisecond}},
	}
	clean := traffic.Synthesize(cfg, stats.NewRNG(3))
	var base []byte
	for _, r := range clean {
		if ip, _ := packet.DecodeIPv4(r.Data); r.Time > 2100*time.Millisecond && loop.Contains(ip.Dst) {
			base = append([]byte(nil), r.Data...)
			base[4] ^= 0xff // another IP ID: no replica of a looping packet
			break
		}
	}
	recs := append([]trace.Record(nil), clean...)
	short := func(at time.Duration, data []byte) {
		recs = append(recs, trace.Record{Time: at, WireLen: 1500, Data: data})
	}
	for k := 0; k < 12; k++ {
		data := append([]byte(nil), base...)
		data[8] = byte(200 - 2*k)
		at := 2200*time.Millisecond + time.Duration(k)*3*time.Millisecond
		short(at, data[:19])
		data = append([]byte(nil), data[:22]...)
		data[0] = 0x46 // 24 bytes of header in 22 of capture
		short(at+time.Microsecond, data)
	}
	short(clean[len(clean)-1].Time+time.Second, base[:10])
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })

	shape := func(res *core.Result) []string {
		var out []string
		for _, l := range res.Loops {
			out = append(out, fmt.Sprintf("loop %v %v–%v", l.Prefix, l.Start, l.End))
			for _, s := range l.Streams {
				out = append(out, fmt.Sprintf("stream %d×%d %v–%v %+v", s.Count(), s.TTLDelta(), s.Start(), s.End(), s.Summary))
			}
		}
		return out
	}
	detCfg := core.DefaultConfig()
	want := core.DetectRecords(clean, detCfg)
	if len(want.Loops) == 0 || want.ParseErrors != 0 {
		t.Fatalf("clean trace: %d loops, %d parse errors; the trace tests nothing", len(want.Loops), want.ParseErrors)
	}
	shorts := len(recs) - len(clean)
	for name, got := range map[string]*core.Result{
		"detector": core.DetectRecords(recs, detCfg), "naive": core.NaiveDetectRecords(recs, detCfg)} {
		if got.ParseErrors != shorts || got.TotalPackets != len(recs) || got.LoopedPackets != want.LoopedPackets {
			t.Errorf("%s: %d parse errors, %d packets, %d looped; want %d, %d, %d", name,
				got.ParseErrors, got.TotalPackets, got.LoopedPackets, shorts, len(recs), want.LoopedPackets)
		}
		if !reflect.DeepEqual(shape(got), shape(want)) {
			t.Errorf("%s: loops\n%v\nwant, as without the short snaps,\n%v", name, shape(got), shape(want))
		}
	}

	res := core.DetectRecords(recs, detCfg)
	rep, cleanRep := Analyze(trace.Meta{}, recs, res), Analyze(trace.Meta{}, clean, want)
	var wire uint64
	for _, r := range recs {
		wire += uint64(r.WireLen)
	}
	dur := recs[len(recs)-1].Time - recs[0].Time
	if rep.TotalPackets != len(recs) || rep.Duration != dur || rep.AvgBandwidthMbps != float64(wire)*8/dur.Seconds()/1e6 {
		t.Errorf("report: %d packets over %v at %v Mb/s; want %d over %v at %v", rep.TotalPackets, rep.Duration,
			rep.AvgBandwidthMbps, len(recs), dur, float64(wire)*8/dur.Seconds()/1e6)
	}
	for c := range rep.AllClassFrac {
		got, want := rep.AllClassFrac[c]*float64(len(recs)), cleanRep.AllClassFrac[c]*float64(len(clean))
		if math.Round(got) != math.Round(want) {
			t.Errorf("class %s: %v records, want %v as without the short snaps", packet.ClassNames[c], got, want)
		}
	}
	if !reflect.DeepEqual(rep.ICMPTypes, cleanRep.ICMPTypes) {
		t.Errorf("ICMP types %v, want %v", rep.ICMPTypes, cleanRep.ICMPTypes)
	}
}
