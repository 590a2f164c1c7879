package analysis_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/core"
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
