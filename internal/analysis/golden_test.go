package analysis_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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

// update rewrites testdata/golden from the current code. The committed
// file was printed by the renderers as they stood before the figure
// table, which is what makes TestGoldenFigures an equivalence proof;
// regenerate it only for a change that means to alter the output.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenReports builds two reports from seeded synthetic traces. The
// first has loops at TTL deltas 2, 3 and 5; the second at 2, 18 and 21,
// past the text form of Figure 2, which stops at delta 16.
func goldenReports(t *testing.T) []*analysis.Report {
	t.Helper()
	var reps []*analysis.Report
	for i, deltas := range [][]int{{2, 3, 5}, {2, 18, 21}} {
		dests := make([]routing.Prefix, 12)
		for j := range dests {
			// Half class C, half not, so Figure 7's class-C column varies.
			dests[j] = routing.NewPrefix(packet.AddrFrom(byte(60+140*(j%2)+i), 51, byte(j), 0), 24)
		}
		var loops []traffic.LoopSpec
		for j, d := range deltas {
			loops = append(loops, traffic.LoopSpec{
				Prefix: dests[3+j], Start: time.Duration(2+3*j) * time.Second,
				Duration: time.Duration(500+300*j) * time.Millisecond, TTLDelta: d,
				Revolution: time.Duration(d) * time.Millisecond,
			})
		}
		link := fmt.Sprintf("golden%d", i+1)
		recs := traffic.Synthesize(traffic.SynthConfig{
			Link: link, Duration: 12 * time.Second, PacketsPerSecond: 600,
			Mix: traffic.DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 8, Loops: loops,
		}, stats.NewRNG(uint64(40+i)))
		res := core.DetectRecords(recs, core.DefaultConfig())
		reps = append(reps, analysis.Analyze(trace.Meta{Link: link, SnapLen: 40}, recs, res))
	}
	return reps
}

// checkGolden compares got with testdata/golden/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden output:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// csvFiles runs FigureCSVs over reports and returns the files by name.
func csvFiles(t *testing.T, reports []*analysis.Report) map[string]*strings.Builder {
	t.Helper()
	files := map[string]*strings.Builder{}
	err := analysis.FigureCSVs(reports, func(name string) (io.WriteCloser, error) {
		b := &strings.Builder{}
		files[name] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGoldenFigures: every table and figure, as text and as CSV, for
// two reports side by side — the paperrepro path — is byte for byte
// what the renderers printed before they shared one figure table.
func TestGoldenFigures(t *testing.T) {
	reps := goldenReports(t)
	if _, top := reps[1].TTLDelta.MinMax(); top <= 16 {
		t.Fatalf("the second trace's largest TTL delta is %d; the golden needs one above 16", top)
	}

	var out bytes.Buffer
	section := func(name, body string) { fmt.Fprintf(&out, "== %s ==\n%s", name, body) }
	for _, f := range analysis.Figures {
		section(f.Name, f.Text(reps, 0))
		if f.Name == "fig7" {
			section("fig7 maxRows=4", f.Text(reps, 4))
		}
	}
	for _, r := range reps {
		section("ttl delta "+r.Link, analysis.RenderTTLDelta(r))
	}

	files := csvFiles(t, reps)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		section(name, files[name].String())
	}
	// Figure 7's CSV plots the fourth report, as the paper plots Backbone 4.
	four := csvFiles(t, []*analysis.Report{reps[0], reps[0], reps[0], reps[1]})
	section("fig7_destinations.csv of four reports", four["fig7_destinations.csv"].String())

	checkGolden(t, "figures.txt", out.Bytes())
}
