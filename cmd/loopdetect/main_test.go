package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loopscope/internal/chaos"
	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// writeTestTrace synthesizes a small trace with one loop and writes it
// in the requested shape.
func writeTestTrace(t *testing.T, path string, gz bool, erf bool) int {
	t.Helper()
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	recs := traffic.Synthesize(traffic.SynthConfig{
		Duration: 20 * time.Second, PacketsPerSecond: 800,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 8,
		Loops: []traffic.LoopSpec{{
			Prefix: dests[1], Start: 5 * time.Second,
			Duration: time.Second, TTLDelta: 2, Revolution: 3 * time.Millisecond,
		}},
	}, stats.NewRNG(4))

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out io.Writer = f
	var gzw *gzip.Writer
	if gz {
		gzw = gzip.NewWriter(f)
		out = gzw
	}
	meta := trace.Meta{Link: "test", SnapLen: 40, Start: time.Unix(0, 0)}
	var w interface {
		Write(trace.Record) error
		Flush() error
	}
	if erf {
		ew, err := trace.NewERFWriter(out, meta)
		if err != nil {
			t.Fatal(err)
		}
		w = ew
	} else {
		nw, err := trace.NewWriter(out, meta)
		if err != nil {
			t.Fatal(err)
		}
		w = nw
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if gzw != nil {
		if err := gzw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return len(recs)
}

// quietStdout sends the modes' output to /dev/null until the test ends.
func quietStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() { os.Stdout = old; devnull.Close() })
}

func TestOpenTraceVariants(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		gz     bool
		erf    bool
		format string
	}{
		{"native", false, false, "auto"},
		{"native-gz", true, false, "auto"},
		{"erf", false, true, "erf"},
		{"erf-gz", true, true, "erf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			n := writeTestTrace(t, path, c.gz, c.erf)
			traceFormat = c.format
			defer func() { traceFormat = "auto" }()
			sc, err := scan(path, core.DefaultConfig(), false)
			if err != nil {
				t.Fatal(err)
			}
			if sc.res.TotalPackets != n {
				t.Fatalf("read %d of %d records", sc.res.TotalPackets, n)
			}
			if len(sc.res.Loops) == 0 {
				t.Error("loop not detected through this format path")
			}
		})
	}
}

func TestRunModesDoNotError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lspt")
	writeTestTrace(t, path, false, false)
	cfg := core.DefaultConfig()

	quietStdout(t) // so test output stays readable

	if err := run(path, cfg, true, true); err != nil {
		t.Errorf("run: %v", err)
	}
	if err := runJSON(path, cfg); err != nil {
		t.Errorf("runJSON: %v", err)
	}
	if err := runStreaming(path, cfg); err != nil {
		t.Errorf("runStreaming: %v", err)
	}
	if err := run(filepath.Join(dir, "missing"), cfg, false, false); err == nil {
		t.Error("missing file accepted")
	}
}

// loopPrefix is the prefix the test loop in writeTestTrace targets.
var loopPrefix = routing.MustParsePrefix("203.0.113.0/24")

// synthLoopTrace synthesizes the same single-loop workload as
// writeTestTrace and returns the raw records (loop active 5s..6s on
// loopPrefix).
func synthLoopTrace() []trace.Record {
	dests := []routing.Prefix{
		routing.MustParsePrefix("198.51.100.0/24"),
		loopPrefix,
	}
	return traffic.Synthesize(traffic.SynthConfig{
		Duration: 20 * time.Second, PacketsPerSecond: 800,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 8,
		Loops: []traffic.LoopSpec{{
			Prefix: dests[1], Start: 5 * time.Second,
			Duration: time.Second, TTLDelta: 2, Revolution: 3 * time.Millisecond,
		}},
	}, stats.NewRNG(4))
}

// encodeWithOffsets writes recs in the named format ("native", "pcap"
// or "erf") and returns the encoded bytes plus each record's starting
// byte offset.
func encodeWithOffsets(t *testing.T, format string, recs []trace.Record) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	meta := trace.Meta{Link: "test", SnapLen: 40, Start: time.Unix(0, 0)}
	var w interface {
		Write(trace.Record) error
		Flush() error
	}
	var err error
	switch format {
	case "native":
		w, err = trace.NewWriter(&buf, meta)
	case "pcap":
		w, err = trace.NewPcapWriter(&buf, meta)
	case "erf":
		w, err = trace.NewERFWriter(&buf, meta)
	}
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, 0, len(recs))
	for _, r := range recs {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, int64(buf.Len()))
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), offs
}

// destOf decodes the destination address of a record snapshot.
func destOf(r trace.Record) (packet.Addr, bool) {
	p, err := packet.DecodeIPv4(r.Data)
	if err != nil {
		return packet.Addr{}, false
	}
	return p.Dst, true
}

// loopsEqual compares two merged-loop sets on the fields the paper
// reports: prefix, activity interval, and replica volume.
func loopsEqual(t *testing.T, got, want []*core.Loop) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d loops, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Prefix != want[i].Prefix ||
			got[i].Start != want[i].Start ||
			got[i].End != want[i].End ||
			got[i].Replicas() != want[i].Replicas() {
			t.Errorf("loop %d: got %v %v..%v (%d replicas), want %v %v..%v (%d replicas)",
				i, got[i].Prefix, got[i].Start, got[i].End, got[i].Replicas(),
				want[i].Prefix, want[i].Start, want[i].End, want[i].Replicas())
		}
	}
}

// TestChaosSalvageRoundTrip is the acceptance gate for the salvage
// layer: for each format, a chaos-corrupted trace read through the
// salvaging reader must never fail, must recover at least 90% of the
// uncorrupted records, and the merged loops found on the clean
// segments must equal the uncorrupted baseline.
func TestChaosSalvageRoundTrip(t *testing.T) {
	recs := synthLoopTrace()
	for _, format := range []string{"native", "pcap", "erf"} {
		t.Run(format, func(t *testing.T) {
			data, offs := encodeWithOffsets(t, format, recs)
			// Opened as loopdetect opens it: native and pcap sniffed from
			// the file header, which the damage below spares; ERF, which
			// has no magic, named.
			opts := trace.OpenOptions{Salvage: true}
			if format == "erf" {
				opts.Format = trace.FormatERF
			}

			// Baseline: the same bytes, uncorrupted, via the same
			// reader (so format-specific timestamp rounding cancels).
			sr, _, err := trace.OpenStream(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			baseRecs, err := trace.ReadAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			baseline := core.DetectRecords(baseRecs, core.DefaultConfig())
			if len(baseline.Loops) == 0 {
				t.Fatal("baseline detected no loops")
			}

			// Protect the file header and every record that can feed
			// the loop finding: anything addressed to the loop's /24
			// (replicas and the subnet-validation context).
			protect := []chaos.Range{{Off: 0, Len: offs[0]}}
			for i, r := range recs {
				if dst, ok := destOf(r); ok && loopPrefix.Contains(dst) {
					end := int64(len(data))
					if i+1 < len(recs) {
						end = offs[i+1]
					}
					protect = append(protect, chaos.Range{Off: offs[i], Len: end - offs[i]})
				}
			}

			corrupted, damaged := chaos.CorruptBytes(data, chaos.ByteFaults{
				Seed:          31,
				GarbageBursts: 15,
				BurstLen:      200,
				BitFlips:      5,
				TruncateTail:  9,
				Protect:       protect,
			})
			if len(damaged) == 0 {
				t.Fatal("chaos injected nothing")
			}

			sr, stats, err := trace.OpenStream(bytes.NewReader(corrupted), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadAll(sr)
			if err != nil {
				t.Fatalf("salvage failed: %v", err)
			}
			if stats.Errors == 0 {
				t.Error("no decode errors recorded on a corrupted trace")
			}
			if got, want := len(got), len(baseRecs)*9/10; got < want {
				t.Fatalf("recovered %d records, want >= %d", got, want)
			}
			res := core.DetectRecords(got, core.DefaultConfig())
			loopsEqual(t, res.Loops, baseline.Loops)
		})
	}
}

// TestSalvageCLIBehavior covers the -salvage / -max-decode-errors
// contract: salvage succeeds on a corrupted trace with decode stats,
// the strict path fails on it, and an exceeded error budget fails
// saying so.
func TestSalvageCLIBehavior(t *testing.T) {
	recs := synthLoopTrace()
	data, offs := encodeWithOffsets(t, "native", recs)
	corrupted, _ := chaos.CorruptBytes(data, chaos.ByteFaults{
		Seed: 17, GarbageBursts: 12, BurstLen: 150,
		Protect: []chaos.Range{{Off: 0, Len: offs[0]}},
	})
	dir := t.TempDir()
	path := filepath.Join(dir, "damaged.lspt")
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict ingestion fails.
	cfg := core.DefaultConfig()
	if _, err := scan(path, cfg, false); err == nil {
		t.Error("strict path read a corrupted trace cleanly")
	}

	// Salvage succeeds and reports stats.
	salvageMode = true
	defer func() { salvageMode = false; maxDecodeErrors = -1 }()
	sc, err := scan(path, cfg, false)
	if err != nil {
		t.Fatalf("salvage path: %v", err)
	}
	if sc.dstats == nil || sc.dstats.Resyncs == 0 {
		t.Fatalf("decode stats missing or empty: %+v", sc.dstats)
	}
	if got := sc.res.TotalPackets; got < len(recs)*9/10 {
		t.Errorf("salvaged %d of %d records", got, len(recs))
	}

	// A tiny error budget trips.
	maxDecodeErrors = 1
	if _, err := scan(path, cfg, false); err == nil || !strings.Contains(err.Error(), "decode error budget exceeded") {
		t.Errorf("budget 1: err = %v, want the decode error budget exceeded", err)
	}
}

// TestTruncatedTraceAnalyzedPartially covers the no-salvage contract
// for truncated files: the records before the cut are analyzed with a
// warning instead of being thrown away.
func TestTruncatedTraceAnalyzedPartially(t *testing.T) {
	recs := synthLoopTrace()
	data, offs := encodeWithOffsets(t, "native", recs)
	cut := offs[len(offs)-1] + 3 // mid final record
	dir := t.TempDir()
	path := filepath.Join(dir, "truncated.lspt")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	sc, err := scan(path, core.DefaultConfig(), false)
	if err != nil {
		t.Fatalf("truncated trace rejected: %v", err)
	}
	if got := sc.res.TotalPackets; got != len(recs)-1 {
		t.Fatalf("analyzed %d records, want %d", got, len(recs)-1)
	}
	if len(sc.res.Loops) == 0 {
		t.Error("loop lost with the truncated tail")
	}

	// The streaming path tolerates the same truncation.
	quietStdout(t)
	if err := runStreaming(path, core.DefaultConfig()); err != nil {
		t.Errorf("runStreaming on truncated trace: %v", err)
	}
}

// TestValidateFlag covers -validate: a trace whose records violate
// the structural invariants is rejected on ingest.
func TestValidateFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "backwards.lspt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Meta{Link: "t", SnapLen: 40, Start: time.Unix(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Timestamps go backwards: structurally invalid.
	for _, at := range []time.Duration{5 * time.Millisecond, 2 * time.Millisecond} {
		if err := w.Write(trace.Record{Time: at, WireLen: 40, Data: make([]byte, 20)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := core.DefaultConfig()
	if _, err := scan(path, cfg, false); err != nil {
		t.Fatalf("without -validate: %v", err)
	}
	validateMode = true
	defer func() { validateMode = false }()
	if _, err := scan(path, cfg, false); err == nil {
		t.Error("-validate accepted a time-travelling trace")
	}
	// Every mode validates, the one that prints as it goes included.
	quietStdout(t)
	if err := runStreaming(path, cfg); err == nil || !strings.Contains(err.Error(), "validation failed") {
		t.Errorf("-stream -validate: err = %v, want a validation failure", err)
	}
}

// TestReadErrorOutranksValidation: a -validate failure is remembered,
// not returned on the spot, so a trace that is both invalid and broken
// is reported as broken.
func TestReadErrorOutranksValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Meta{Link: "t", SnapLen: 40, Start: time.Unix(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{5 * time.Millisecond, 2 * time.Millisecond, 9 * time.Millisecond} {
		if err := w.Write(trace.Record{Time: at, WireLen: 40, Data: make([]byte, 20)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-20-2] = 0xff // the last record's caplen: far over the file's snaplen
	path := filepath.Join(t.TempDir(), "broken.lspt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	validateMode = true
	defer func() { validateMode = false }()
	_, err = scan(path, core.DefaultConfig(), false)
	if err == nil || strings.Contains(err.Error(), "validation failed") {
		t.Errorf("err = %v, want the read error", err)
	}
}

// TestJSONIncludesDecodeStats covers the machine-readable side of the
// decode-stats section.
func TestJSONIncludesDecodeStats(t *testing.T) {
	recs := synthLoopTrace()
	// Give the ERF records some capture-loss gaps as well.
	recs[100].Lost = 3
	data, offs := encodeWithOffsets(t, "erf", recs)
	corrupted, _ := chaos.CorruptBytes(data, chaos.ByteFaults{
		Seed: 23, GarbageBursts: 5, BurstLen: 120,
		Protect: []chaos.Range{{Off: 0, Len: offs[101]}},
	})
	dir := t.TempDir()
	path := filepath.Join(dir, "damaged.erf")
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	salvageMode = true
	traceFormat = "erf"
	defer func() { salvageMode = false; traceFormat = "auto" }()

	outPath := filepath.Join(dir, "out.json")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = outFile
	err = runJSON(path, core.DefaultConfig())
	os.Stdout = old
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var res jsonResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.DecodeStats == nil {
		t.Fatal("decodeStats missing from -salvage JSON output")
	}
	if res.DecodeStats.Resyncs == 0 || res.DecodeStats.BytesSkipped == 0 {
		t.Errorf("decodeStats empty: %+v", res.DecodeStats)
	}
	if res.CaptureLossGaps == 0 || res.CaptureLossPackets != 3 {
		t.Errorf("capture loss = %d gaps / %d packets, want 1 gap / 3 packets",
			res.CaptureLossGaps, res.CaptureLossPackets)
	}
}

func TestOpenTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, []byte("this is not a trace at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openTrace(path); err == nil {
		t.Error("garbage accepted")
	}
	_ = packet.Addr{}
}
