package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// runCLI invokes run with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// writeEmptyTrace creates a valid native trace file with no records.
func writeEmptyTrace(t *testing.T, path string) { writeTrace(t, path, nil) }

// writeLoopTrace creates a 20 s native trace with two scripted loops.
func writeLoopTrace(t *testing.T, path string) {
	t.Helper()
	dests := []routing.Prefix{routing.MustParsePrefix("198.18.0.0/24"), routing.MustParsePrefix("198.18.1.0/24")}
	cfg := traffic.SynthConfig{
		Duration: 20 * time.Second, PacketsPerSecond: 300,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 9,
	}
	for i, start := range []time.Duration{2 * time.Second, 8 * time.Second} {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix: dests[i], Start: start, Duration: 1200 * time.Millisecond,
			TTLDelta: 3, Revolution: 3 * time.Millisecond,
		})
	}
	writeTrace(t, path, traffic.Synthesize(cfg, stats.NewRNG(1)))
}

func writeTrace(t *testing.T, path string, recs []trace.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Meta{Link: "test", Start: time.Unix(1700000000, 0), SnapLen: trace.DefaultSnapLen})
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
}

func TestRunHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	for _, flag := range []string{"-tail", "-journal", "-fsync", "-max-streams", "-poll-max", "-checkpoint"} {
		if !strings.Contains(stderr, flag) {
			t.Errorf("-h output does not document %s", flag)
		}
	}
}

func TestRunNoSourcesUsageError(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("no sources exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "no sources") {
		t.Errorf("stderr does not explain the problem: %q", stderr)
	}
}

func TestRunUnknownFlagUsageError(t *testing.T) {
	code, _, stderr := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "definitely-not-a-flag") {
		t.Errorf("stderr does not name the bad flag: %q", stderr)
	}
}

func TestRunPositionalArgsUsageError(t *testing.T) {
	code, _, _ := runCLI(t, "stray-positional")
	if code != 2 {
		t.Fatalf("positional arg exited %d, want 2", code)
	}
}

func TestRunConfigValidationErrors(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.lspt")
	writeEmptyTrace(t, tracePath)

	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"bad log level", []string{"-tail", tracePath, "-log-level", "shout"}, "log"},
		{"bad log format", []string{"-tail", tracePath, "-log-format", "xml"}, "log-format"},
		{"bad fsync policy", []string{"-tail", tracePath, "-fsync", "sometimes"}, "fsync"},
		{"negative max-streams", []string{"-tail", tracePath, "-max-streams", "-1"}, "MaxActiveStreams"},
		{"bad listen spec", []string{"-listen", "udp:127.0.0.1:4444"}, "listen"},
		{"trail without flight", []string{"-tail", tracePath, "-flight-events", "0", "-trail-journal", filepath.Join(dir, "tr.jsonl")}, "flight"},
		{"bad detector config", []string{"-tail", tracePath, "-min-replicas", "0"}, "detector"},
		{"missing watch dir", []string{"-watch", filepath.Join(dir, "nope")}, "nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2; stderr: %q", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestRunTailToJournalEndToEnd: the full daemon pipeline through the
// real main body — tail an (empty, immediately idle) trace, write a
// journal and checkpoint, exit 0 via -exit-idle.
func TestRunTailToJournalEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.lspt")
	writeEmptyTrace(t, tracePath)
	journal := filepath.Join(dir, "loops.jsonl")
	cp := filepath.Join(dir, "cp.json")

	code, _, stderr := runCLI(t,
		"-tail", tracePath,
		"-journal", journal,
		"-checkpoint", cp,
		"-exit-idle", "200ms",
		"-poll", "5ms",
		"-fsync", "always",
		"-max-streams", "1024",
	)
	if code != 0 {
		t.Fatalf("daemon exited %d; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("journal not created: %v", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Errorf("checkpoint not created: %v", err)
	}
	if !strings.Contains(stderr, "stopped") {
		t.Errorf("clean shutdown not logged: %q", stderr)
	}
}

// TestRunAnalyticsSnapshotBesideCheckpoint: a -checkpoint run leaves the
// /api/v1/stats sketches in <checkpoint>.analytics, and a second run over
// the same capture and checkpoint starts from them: the loops it emits
// again count as duplicates instead of being ingested afresh.
func TestRunAnalyticsSnapshotBesideCheckpoint(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.lspt")
	writeLoopTrace(t, tracePath)
	cp := filepath.Join(dir, "cp.json")
	counts := func() (ingested, deduped uint64) {
		t.Helper()
		code, _, stderr := runCLI(t, "-tail", tracePath, "-journal", filepath.Join(dir, "loops.jsonl"),
			"-checkpoint", cp, "-exit-idle", "200ms", "-poll", "5ms")
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr:\n%s", code, stderr)
		}
		c := analytics.NewCollector(analytics.Options{})
		if _, err := c.Load(cp + ".analytics"); err != nil {
			t.Fatal(err)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var n struct{ Ingested, Deduped uint64 }
		if err := json.Unmarshal(snap, &n); err != nil {
			t.Fatal(err)
		}
		return n.Ingested, n.Deduped
	}
	in1, dup1 := counts()
	if in1 == 0 {
		t.Fatalf("no loops in %s.analytics after the first run", cp)
	}
	if in2, dup2 := counts(); in2 != in1 || dup2 <= dup1 {
		t.Errorf("second run: %d ingested, %d deduped; want %d ingested and more than %d deduped",
			in2, dup2, in1, dup1)
	}
}

// TestFlagSurface pins the flags loopscoped registers, so a new one shows
// up as a diff of this list.
func TestFlagSurface(t *testing.T) {
	_, _, stderr := runCLI(t, "-h")
	var got []string
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	sort.Strings(got)
	want := []string{
		"checkpoint", "checkpoint-interval", "drain-timeout", "exit-idle",
		"flight-events", "fsync", "http", "journal", "listen", "log-format",
		"log-level", "max-streams", "merge-window", "min-replicas", "no-validate",
		"poll", "poll-max", "prefix-bits", "replica-gap", "retain", "tail",
		"trail-journal", "ttl-delta", "vantage", "watch", "webhook",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %q\nwant    %q", got, want)
	}
}
