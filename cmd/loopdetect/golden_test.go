package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// update rewrites testdata/golden from the current code. The committed
// files were produced by the commit before the one-pass scan (the tool
// that read the whole trace into memory first), which is what makes
// TestGoldenOutputs an equivalence proof; regenerate them only for a
// change that means to alter the output.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runSectionRE matches the -json run section, the one part of the
// document that is timing and not analysis.
var runSectionRE = regexp.MustCompile(`(?s)  "run": \{.*?\n  \},\n`)

// goldenHashOver is the size from which a golden output is committed as
// its SHA-256 (name.sha256) instead of in full.
const goldenHashOver = 16 << 10

// checkGolden compares got with testdata/golden/name, or its SHA-256
// with name.sha256.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	sum := []byte(fmt.Sprintf("%x\n", sha256.Sum256(got)))
	if *update {
		os.Remove(path)
		os.Remove(path + ".sha256")
		if len(got) > goldenHashOver {
			path, got = path+".sha256", sum
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden output:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
		return
	}
	want, err := os.ReadFile(path + ".sha256")
	if err != nil {
		t.Fatalf("no golden file for %s: %v", name, err)
	}
	if !bytes.Equal(sum, want) {
		t.Errorf("%s: SHA-256 %s, golden %s", name, sum, want)
	}
}

// TestGoldenOutputs: every mode's output for four fixtures — native,
// gzipped pcap, ERF with capture-loss counters, and a native file
// damaged for -salvage — is byte for byte what the tool printed when it
// still materialised the trace, at every worker count.
func TestGoldenOutputs(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, fx := range []struct {
		name, file, format string
		salvage            bool
	}{
		{"native", "native.lspt", "auto", false},
		{"pcapgz", "pcap.pcap.gz", "auto", false},
		{"erf", "erf.erf", "erf", false},
		{"damaged", "damaged.lspt", "auto", true},
	} {
		path := filepath.Join("testdata", fx.file)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", fx.name, workers), func(t *testing.T) {
				traceFormat, salvageMode, workerCount = fx.format, fx.salvage, workers
				reg = nil
				defer func() { traceFormat, salvageMode, workerCount = "auto", false, 0 }()

				withRegistry(t) // as -json does
				doc := captureStdout(t, func() error { return runJSON(path, cfg) })
				reg = nil
				checkGolden(t, fx.name+".json", runSectionRE.ReplaceAll(doc, nil))

				checkGolden(t, fx.name+".text", captureStdout(t, func() error { return run(path, cfg, false, true) }))
				checkGolden(t, fx.name+".streams", captureStdout(t, func() error { return run(path, cfg, true, true) }))
				checkGolden(t, fx.name+".report", captureStdout(t, func() error { return runReport(path, cfg) }))
				checkGolden(t, fx.name+".stream", captureStdout(t, func() error { return runStreaming(path, cfg) }))

				var trail bytes.Buffer
				if err := runExplain(path, cfg, "all", "", &trail); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fx.name+".explain", trail.Bytes())

				pcap := filepath.Join(t.TempDir(), "loop.pcap")
				captureStdout(t, func() error { return runExtract(path, cfg, 0, pcap) })
				evidence, err := os.ReadFile(pcap)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fx.name+".extract.pcap", evidence)
			})
		}
	}
}

// TestExtractNeedsAFile: -extract reads the trace twice, which stdin
// cannot offer.
func TestExtractNeedsAFile(t *testing.T) {
	err := runExtract("-", core.DefaultConfig(), 0, filepath.Join(t.TempDir(), "loop.pcap"))
	if err == nil || !strings.Contains(err.Error(), "-extract needs a file it can read twice") {
		t.Errorf("-extract on stdin: err = %v", err)
	}
}

// heapSampler passes records through and notes the largest live heap
// seen from inside the pass.
type heapSampler struct {
	trace.Source
	n    int
	peak uint64
}

func (h *heapSampler) Borrow() (trace.Record, error) {
	if h.n++; h.n%10000 == 0 {
		runtime.GC() // the live heap, not what the collector has yet to sweep
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.peak = max(h.peak, ms.HeapInuse)
	}
	return h.Source.Borrow()
}

// TestScanHoldsNoRecords: what scan holds does not grow with the trace.
// A trace and one four times as long — same rate, same loops, read from
// a pipe, which can be read once and in order only — must peak within a
// quarter of each other.
func TestScanHoldsNoRecords(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxReplicaGap, cfg.MergeWindow = 250*time.Millisecond, time.Second
	peak := func(d time.Duration) (uint64, int) {
		dests := make([]routing.Prefix, 64)
		for i := range dests {
			dests[i] = routing.NewPrefix(packet.AddrFrom(198, 51, byte(i), 0), 24)
		}
		// The generator's own state grows with the trace (an IP-ID
		// counter per source address), so it runs first, into a file,
		// and the file is fed through the pipe.
		f, err := os.Create(filepath.Join(t.TempDir(), "t.lspt"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f, trace.Meta{Link: "pipe", SnapLen: 40, Start: time.Unix(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		traffic.SynthesizeStream(traffic.SynthConfig{
			Duration: d, PacketsPerSecond: 20000,
			Mix: traffic.DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 8,
			Loops: []traffic.LoopSpec{{
				Prefix: dests[7], Start: time.Second,
				Duration: 300 * time.Millisecond, TTLDelta: 2, Revolution: 3 * time.Millisecond,
			}},
		}, stats.NewRNG(3), func(r trace.Record) {
			if err == nil {
				err = w.Write(r)
			}
		})
		if err == nil {
			err = w.Flush()
		}
		if err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		go func() {
			_, err := io.Copy(pw, f)
			pw.CloseWithError(err)
		}()
		src, _, err := trace.OpenStream(pr, trace.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hs := &heapSampler{Source: src}
		sc, err := scanSource(hs, nil, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.res.Loops) == 0 {
			t.Error("scripted loop not detected")
		}
		return hs.peak, sc.res.TotalPackets
	}
	for _, workers := range []int{1, 2} {
		workerCount = workers
		short, n := peak(5 * time.Second)
		long, n4 := peak(20 * time.Second)
		t.Logf("workers %d: %d records peak %d KiB, %d records peak %d KiB", workers, n, short>>10, n4, long>>10)
		if n4 < 3*n {
			t.Fatalf("the long trace has %d records, the short one %d", n4, n)
		}
		if diff := max(long, short) - min(long, short); diff*4 >= short {
			t.Errorf("workers %d: live heap peaks at %d B over %d records and %d B over %d", workers, short, n, long, n4)
		}
	}
	workerCount = 0
}

// backwardsCapture writes a capture whose clock runs backwards now and
// then, which the strict reader passes through to the detector: single
// records stamped up to 1.5 s early (inside MaxReplicaGap), others
// 2.5–4 s early (across it), and two blocks of a few hundred records
// shifted back 3 s and 0.8 s, so the steps land inside replica streams,
// between them and across merge decisions. It is generated from fixed
// seeds, so the file is the same on every run.
func backwardsCapture(t *testing.T) string {
	t.Helper()
	dests := make([]routing.Prefix, 24)
	for i := range dests {
		dests[i] = routing.NewPrefix(packet.AddrFrom(198, 51, byte(i), 0), 24)
	}
	var loops []traffic.LoopSpec
	for i, start := range []time.Duration{1500, 4200, 4700, 7300, 9100} {
		loops = append(loops, traffic.LoopSpec{Prefix: dests[3*i], Start: start * time.Millisecond,
			Duration: 900 * time.Millisecond, TTLDelta: 2 + i%3, Revolution: time.Duration(2+i) * time.Millisecond})
	}
	recs := traffic.Synthesize(traffic.SynthConfig{Duration: 12 * time.Second, PacketsPerSecond: 1500,
		Mix: traffic.DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 8, Loops: loops}, stats.NewRNG(27))
	rng := stats.NewRNG(28)
	for i := range recs {
		switch {
		case i%211 == 17:
			recs[i].Time -= time.Duration(1+rng.Intn(1500)) * time.Millisecond
		case i%1013 == 500:
			recs[i].Time -= time.Duration(2500+rng.Intn(1500)) * time.Millisecond
		case i >= 6000 && i < 6400:
			recs[i].Time -= 3 * time.Second
		case i >= 11000 && i < 11250:
			recs[i].Time -= 800 * time.Millisecond
		}
		recs[i].Time = max(recs[i].Time, 0)
	}
	path := filepath.Join(t.TempDir(), "backwards.lspt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Meta{Link: "backwards", SnapLen: 40, Start: time.Unix(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenBackwardsTimestamps: on a capture whose clock steps
// backwards, -json, -stream and -streams print, at every worker count,
// what the detector printed when every first observation was a builder.
// What the detector does with such records is specified by the Detector
// doc comment; these files are that specification's test.
func TestGoldenBackwardsTimestamps(t *testing.T) {
	path := backwardsCapture(t)
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			workerCount = workers
			reg = nil
			defer func() { workerCount = 0 }()

			withRegistry(t)
			doc := captureStdout(t, func() error { return runJSON(path, cfg) })
			reg = nil
			checkGolden(t, "backwards.json", runSectionRE.ReplaceAll(doc, nil))
			checkGolden(t, "backwards.streams", captureStdout(t, func() error { return run(path, cfg, true, true) }))
			checkGolden(t, "backwards.stream", captureStdout(t, func() error { return runStreaming(path, cfg) }))
		})
	}
}
