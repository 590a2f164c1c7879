package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
	"loopscope/pkg/loopscope"
)

// serveTestTrace synthesizes a trace with scripted loops (shorter than
// the core tests' traces: the daemon tests run several incarnations).
func serveTestTrace(t *testing.T, seed uint64, loops int) []trace.Record {
	t.Helper()
	rng := stats.NewRNG(seed)
	var dests []routing.Prefix
	for i := 0; i < 16; i++ {
		dests = append(dests, routing.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)))
	}
	cfg := traffic.SynthConfig{
		Duration: 40 * time.Second, PacketsPerSecond: 600,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 9,
	}
	for i := 0; i < loops; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      time.Duration(rng.Int63n(int64(30 * time.Second))),
			Duration:   time.Duration(300+rng.Intn(3000)) * time.Millisecond,
			TTLDelta:   2 + rng.Intn(3),
			Revolution: time.Duration(2000+rng.Intn(4000)) * time.Microsecond,
		})
	}
	return traffic.Synthesize(cfg, rng)
}

// scriptedLoop places one synthetic loop: prefix index and start time.
type scriptedLoop struct {
	prefix int
	start  time.Duration
}

// serveScriptedTrace synthesizes a trace with loops at explicit times.
// Scheduling two loops per prefix makes the first of each pair
// finalize mid-stream — the second stream's dirty gap blocks merging,
// so the open loop is emitted as a final while records are still
// flowing — which the restart tests rely on: they need finals
// delivered at known points before and after a kill.
func serveScriptedTrace(t *testing.T, seed uint64, loops []scriptedLoop) []trace.Record {
	t.Helper()
	rng := stats.NewRNG(seed)
	var dests []routing.Prefix
	for i := 0; i < 16; i++ {
		dests = append(dests, routing.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)))
	}
	cfg := traffic.SynthConfig{
		Duration: 40 * time.Second, PacketsPerSecond: 600,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 9,
	}
	for _, l := range loops {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[l.prefix],
			Start:      l.start,
			Duration:   1200 * time.Millisecond,
			TTLDelta:   3,
			Revolution: 3 * time.Millisecond,
		})
	}
	return traffic.Synthesize(cfg, rng)
}

// writeTraceFile writes recs as a native trace file.
func writeTraceFile(t *testing.T, path string, meta trace.Meta, recs []trace.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, meta)
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

// testMeta is the capture metadata the daemon tests write with.
func testMeta() trace.Meta {
	return trace.Meta{Link: "testlink", Start: time.Unix(1700000000, 0), SnapLen: trace.DefaultSnapLen}
}

// journalEvents parses every line of a journal file.
func journalEvents(t *testing.T, path string) []Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for _, line := range splitLines(data) {
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// finalIDSet returns the set of non-truncated event IDs, failing on any
// duplicate line (truncated included: the journal must never hold the
// same ID twice).
func finalIDSet(t *testing.T, events []Event) map[string]bool {
	t.Helper()
	all := map[string]bool{}
	finals := map[string]bool{}
	for _, e := range events {
		if all[e.ID] {
			t.Fatalf("duplicate id %s in journal", e.ID)
		}
		all[e.ID] = true
		if !e.Truncated {
			finals[e.ID] = true
		}
	}
	return finals
}

// newTestDaemon builds a daemon with a journal sink and fast intervals.
// Every test that builds a daemon also gets the goroutine-leak check:
// a daemon whose Run returned must leave nothing behind.
func newTestDaemon(t *testing.T, journalPath, cpPath string) *Daemon {
	t.Helper()
	obs.VerifyNoLeaks(t)
	cfg := Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: 10 * time.Millisecond,
		DrainTimeout:       5 * time.Second,
		ExitIdle:           250 * time.Millisecond,
		TailPoll:           2 * time.Millisecond,
		Analytics:          analytics.NewCollector(analytics.Options{}),
	}
	if cpPath != "" {
		// The same derivation loopscoped uses, so every checkpointing
		// daemon test also exercises snapshot save/load.
		cfg.AnalyticsSnapshotPath = cpPath + ".analytics"
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{Path: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	return d
}

// TestDaemonKillRestartEquivalence is the PR's acceptance criterion: a
// daemon killed mid-trace (abrupt, no drain, no final checkpoint) and
// restarted from its checkpoint must end up with exactly the
// uninterrupted run's final loop events in its journal — same ID set,
// zero duplicates.
func TestDaemonKillRestartEquivalence(t *testing.T) {
	recs := serveTestTrace(t, 7, 10)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	ctx := context.Background()

	// Reference: one uninterrupted run over the whole file.
	refJournal := filepath.Join(dir, "ref.jsonl")
	ref := newTestDaemon(t, refJournal, filepath.Join(dir, "ref-cp.json"))
	if err := ref.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refFinals := finalIDSet(t, journalEvents(t, refJournal))
	if len(refFinals) == 0 {
		t.Fatal("reference run journaled no final loops; trace too quiet")
	}

	for _, frac := range []float64{0.3, 0.6} {
		frac := frac
		t.Run(fmt.Sprintf("kill-at-%d%%", int(frac*100)), func(t *testing.T) {
			sub := t.TempDir()
			journal := filepath.Join(sub, "loops.jsonl")
			cpPath := filepath.Join(sub, "cp.json")
			killAt := int64(float64(len(recs)) * frac)

			// First incarnation: dies abruptly mid-file.
			d1 := newTestDaemon(t, journal, cpPath)
			// The kill waits for a checkpoint tick to have landed, so the
			// test holds however fast the reader gets to killAt.
			d1.testCrash = func(_ string, n int64) bool {
				if n < killAt {
					return false
				}
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if cp, _, err := LoadCheckpoint(cpPath); err == nil && cp != nil && cp.Sources["src"].Records > 0 {
						break
					}
				}
				return true
			}
			if err := d1.AddTailSource("src", tracePath); err != nil {
				t.Fatal(err)
			}
			if err := d1.Run(ctx); !errors.Is(err, errTestCrash) {
				t.Fatalf("crash run returned %v", err)
			}
			cp, _, err := LoadCheckpoint(cpPath)
			if err != nil || cp == nil {
				t.Fatalf("no checkpoint after crash: %v", err)
			}
			if cp.Sources["src"].Records == 0 {
				t.Fatal("checkpoint recorded no progress")
			}

			// Second incarnation: resumes and finishes.
			d2 := newTestDaemon(t, journal, cpPath)
			if err := d2.AddTailSource("src", tracePath); err != nil {
				t.Fatal(err)
			}
			if err := d2.Run(ctx); err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			gotFinals := finalIDSet(t, journalEvents(t, journal))
			if len(gotFinals) != len(refFinals) {
				t.Fatalf("resumed journal has %d finals, reference %d", len(gotFinals), len(refFinals))
			}
			for id := range refFinals {
				if !gotFinals[id] {
					t.Fatalf("final %s missing from resumed journal", id)
				}
			}

			// Analytics equivalence: the crash-restarted collector
			// (snapshot restored, replayed emissions suppressed by the
			// persisted seen-ID ring) must hold exactly the reference
			// run's cumulative distributions — same unique-event count,
			// byte-identical stats document.
			refIngested, _ := ref.cfg.Analytics.Counts()
			gotIngested, _ := d2.cfg.Analytics.Counts()
			if gotIngested != refIngested {
				t.Fatalf("resumed analytics ingested %d unique events, reference %d", gotIngested, refIngested)
			}
			refStats, err := ref.cfg.Analytics.Query(analytics.Query{})
			if err != nil {
				t.Fatal(err)
			}
			gotStats, err := d2.cfg.Analytics.Query(analytics.Query{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refStats, gotStats) {
				t.Errorf("resumed analytics differ from reference:\n got %+v\nwant %+v", gotStats, refStats)
			}
		})
	}
}

// TestDaemonDirKillRestartEquivalence kills a directory-source daemon
// mid-segment-2, after finals from both segments were journaled, and
// requires the resumed run to end up with exactly the uninterrupted
// run's final ID set. This is the regression test for dir-source
// resume arming replay suppression with the cumulative cross-segment
// emission count: replay re-derives only the current segment's loops,
// so the leftover suppression silently swallowed that many genuinely
// new events after the restart.
func TestDaemonDirKillRestartEquivalence(t *testing.T) {
	// Loop pairs per prefix; the first of each pair finalizes
	// mid-stream at ~12s, ~14s (segment 1) and ~30s, ~36s (segment 2)
	// on the trace clock.
	recs := serveScriptedTrace(t, 11, []scriptedLoop{
		{0, 2 * time.Second}, {0, 8 * time.Second},
		{1, 4 * time.Second}, {1, 11 * time.Second},
		{2, 20 * time.Second}, {2, 27 * time.Second},
		{3, 22 * time.Second}, {3, 33 * time.Second},
	})
	// Cut between the segment-1 finals and the segment-2 loops; kill
	// between the two segment-2 finals, so at the kill the session has
	// delivered finals from both segments but at least one more is
	// still to come.
	cutAt, killAt := -1, -1
	for i, r := range recs {
		if cutAt < 0 && r.Time >= 17*time.Second {
			cutAt = i
		}
		if killAt < 0 && r.Time >= 32*time.Second {
			killAt = i
		}
	}
	if cutAt < 0 || killAt < 0 {
		t.Fatal("trace too short for the scripted cut/kill points")
	}

	segDir := t.TempDir()
	meta1 := testMeta()
	writeTraceFile(t, filepath.Join(segDir, "seg-000.lspt"), meta1, recs[:cutAt])
	cut := recs[cutAt].Time
	meta2 := meta1
	meta2.Start = meta1.Start.Add(cut)
	seg2 := make([]trace.Record, 0, len(recs)-cutAt)
	for _, r := range recs[cutAt:] {
		r.Time -= cut
		seg2 = append(seg2, r)
	}
	writeTraceFile(t, filepath.Join(segDir, "seg-001.lspt"), meta2, seg2)

	ctx := context.Background()

	// Reference: one uninterrupted run over both segments.
	out := t.TempDir()
	refJournal := filepath.Join(out, "ref.jsonl")
	ref := newTestDaemon(t, refJournal, filepath.Join(out, "ref-cp.json"))
	if err := ref.AddDirSource("dirsrc", segDir); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refFinals := finalIDSet(t, journalEvents(t, refJournal))
	if len(refFinals) < 4 {
		t.Fatalf("reference journaled %d finals, want >= 4 (scripted pairs)", len(refFinals))
	}

	// First incarnation: dies abruptly mid-segment-2. The checkpoint is
	// forced at the kill point so resume replays exactly the consumed
	// prefix of seg-001.
	journal := filepath.Join(out, "loops.jsonl")
	cpPath := filepath.Join(out, "cp.json")
	d1 := newTestDaemon(t, journal, cpPath)
	var seen int64 // single source: callback runs on one goroutine
	d1.testCrash = func(_ string, _ int64) bool {
		seen++
		if seen < int64(killAt) {
			return false
		}
		if err := d1.checkpoint(); err != nil {
			t.Errorf("forced checkpoint: %v", err)
		}
		return true
	}
	if err := d1.AddDirSource("dirsrc", segDir); err != nil {
		t.Fatal(err)
	}
	if err := d1.Run(ctx); !errors.Is(err, errTestCrash) {
		t.Fatalf("crash run returned %v", err)
	}
	cp, _, err := LoadCheckpoint(cpPath)
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}
	src := cp.Sources["dirsrc"]
	if src.File != "seg-001.lspt" {
		t.Fatalf("crash fell in segment %q, want seg-001.lspt (kill point missed)", src.File)
	}
	if src.Emitted < 2 {
		// The over-suppression precondition: the checkpointed count
		// must include finals from the earlier segment.
		t.Fatalf("checkpoint emitted %d, want >= 2 (finals from both segments)", src.Emitted)
	}

	// Second incarnation: resumes from the current segment and must
	// still deliver every remaining final.
	d2 := newTestDaemon(t, journal, cpPath)
	if err := d2.AddDirSource("dirsrc", segDir); err != nil {
		t.Fatal(err)
	}
	if err := d2.Run(ctx); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	gotFinals := finalIDSet(t, journalEvents(t, journal))
	for id := range refFinals {
		if !gotFinals[id] {
			t.Errorf("final %s missing from resumed journal", id)
		}
	}
	for id := range gotFinals {
		if !refFinals[id] {
			t.Errorf("final %s in resumed journal but not in reference", id)
		}
	}
}

// TestDaemonTailResumeShortFile resumes a tail source from a
// checkpoint that claims more bytes than the file holds — an OS crash
// can lose the file's tail while keeping the checkpoint. The daemon
// must fall back to a fresh read instead of hanging: the regression
// this guards sat in "replaying" forever with ExitIdle=0 (no idle
// timeout), treating any later appends as replay.
func TestDaemonTailResumeShortFile(t *testing.T) {
	recs := serveScriptedTrace(t, 23, []scriptedLoop{
		{0, 2 * time.Second}, {0, 8 * time.Second},
		{1, 4 * time.Second}, {1, 11 * time.Second},
	})
	// Locate the record indexes where the finals are emitted, so the
	// truncation point provably keeps both finals derivable (looping
	// replicas make record density very uneven — a byte fraction lands
	// in unpredictable trace time).
	var emitIdx []int
	idx := 0
	probe, err := core.NewSession(core.DefaultConfig(), func(e core.SessionEvent) {
		if !e.Truncated {
			emitIdx = append(emitIdx, idx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for idx = range recs {
		probe.Observe(recs[idx])
	}
	if len(emitIdx) < 2 {
		t.Fatalf("scripted trace emitted %d mid-stream finals, want >= 2", len(emitIdx))
	}
	keep := emitIdx[len(emitIdx)-1] + 500
	if keep >= len(recs) {
		t.Fatalf("no room to truncate after the last final (emitted at %d of %d)", emitIdx[len(emitIdx)-1], len(recs))
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	// First incarnation: consume the whole file; the final checkpoint
	// claims every record.
	cpPath := filepath.Join(dir, "cp.json")
	d1 := newTestDaemon(t, filepath.Join(dir, "j1.jsonl"), cpPath)
	if err := d1.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	if err := d1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Lose the file's tail, keeping the inode (same FileID, so the
	// checkpoint still appears to describe this file). The cut lands
	// mid-record, as a real crash would leave it.
	tr, err := trace.OpenTail(tracePath, trace.TailOptions{Poll: time.Millisecond, IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for tr.Records() < int64(keep) {
		if _, err := tr.Next(context.Background()); err != nil {
			t.Fatalf("measuring truncation offset: %v", err)
		}
	}
	cutBytes := tr.Offset() + 5
	tr.Close()
	if err := os.Truncate(tracePath, cutBytes); err != nil {
		t.Fatal(err)
	}

	// Second incarnation runs forever (ExitIdle=0): only the
	// fresh-read fallback makes finals appear in its fresh journal.
	d2, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: 10 * time.Millisecond,
		DrainTimeout:       5 * time.Second,
		TailPoll:           2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	journal2 := filepath.Join(dir, "j2.jsonl")
	j2, err := NewJournal(JournalOptions{Path: journal2})
	if err != nil {
		t.Fatal(err)
	}
	d2.AddSink(j2)
	if err := d2.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d2.Run(ctx) }()

	// The truncated prefix (~24s of trace) still contains both
	// mid-stream finals (~12s and ~14s).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if n := looseFinalCount(journal2); n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("no finals appeared after resume from an over-long checkpoint; replay is stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop on cancellation")
	}
	finalIDSet(t, journalEvents(t, journal2)) // no duplicate IDs
}

// TestDaemonDirResumeShortSegment is TestDaemonTailResumeShortFile for
// a dir source: the checkpointed segment lost its tail after the
// checkpoint was written. The resume must notice before replaying and
// read the segment fresh, so the checkpoint stops claiming bytes the
// file does not hold.
func TestDaemonDirResumeShortSegment(t *testing.T) {
	recs := serveScriptedTrace(t, 23, []scriptedLoop{
		{0, 2 * time.Second}, {0, 8 * time.Second},
		{1, 4 * time.Second}, {1, 11 * time.Second},
	})
	var emitIdx []int
	idx := 0
	probe, err := core.NewSession(core.DefaultConfig(), func(e core.SessionEvent) {
		if !e.Truncated {
			emitIdx = append(emitIdx, idx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for idx = range recs {
		probe.Observe(recs[idx])
	}
	if len(emitIdx) < 2 || emitIdx[len(emitIdx)-1]+500 >= len(recs) {
		t.Fatalf("scripted trace emitted %d mid-stream finals, want >= 2 well before the end", len(emitIdx))
	}
	keep := emitIdx[len(emitIdx)-1] + 500

	dir := t.TempDir()
	segDir := filepath.Join(dir, "segs")
	if err := os.Mkdir(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(segDir, "seg-000.lspt")
	writeTraceFile(t, segPath, testMeta(), recs)
	cpPath := filepath.Join(dir, "cp.json")
	d1 := newTestDaemon(t, filepath.Join(dir, "j1.jsonl"), cpPath)
	if err := d1.AddDirSource("src", segDir); err != nil {
		t.Fatal(err)
	}
	if err := d1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cutBytes := offsetAfter(t, segPath, keep) + 5
	if err := os.Truncate(segPath, cutBytes); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: 10 * time.Millisecond,
		DrainTimeout:       5 * time.Second,
		TailPoll:           2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	journal2 := filepath.Join(dir, "j2.jsonl")
	j2, err := NewJournal(JournalOptions{Path: journal2})
	if err != nil {
		t.Fatal(err)
	}
	d2.AddSink(j2)
	if err := d2.AddDirSource("src", segDir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d2.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run after cancel: %v", err)
		}
	}()

	var got SourceCheckpoint
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if cp, _, err := LoadCheckpoint(cpPath); err == nil && cp != nil {
			got = cp.Sources["src"]
		}
		if looseFinalCount(journal2) >= 2 && got.Records == int64(keep) && got.Offset <= cutBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint claims %d records ending at %d; the segment holds %d records in %d bytes",
				got.Records, got.Offset, keep, cutBytes)
		}
	}
}

// looseFinalCount counts parseable final events in a journal the
// daemon may still be appending to (torn tail lines are skipped).
func looseFinalCount(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range splitLines(data) {
		if len(line) == 0 {
			continue
		}
		var e Event
		if json.Unmarshal(line, &e) == nil && !e.Truncated {
			n++
		}
	}
	return n
}

// TestDaemonTailGrowingFile follows a file that grows while the daemon
// runs: half the records exist at start, the rest are appended live.
func TestDaemonTailGrowingFile(t *testing.T) {
	recs := serveTestTrace(t, 13, 8)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "grow.lspt")
	k := len(recs) / 2
	writeTraceFile(t, tracePath, testMeta(), recs[:k])

	journal := filepath.Join(dir, "loops.jsonl")
	d := newTestDaemon(t, journal, filepath.Join(dir, "cp.json"))
	if err := d.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	// Append the second half while the daemon is tailing. Records are
	// framed by hand so the bytes append to the existing file.
	time.Sleep(50 * time.Millisecond)
	f, err := os.OpenFile(tracePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[k:] {
		var hdr [12]byte
		putRecordHeader(hdr[:], r)
		if _, err := f.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(r.Data); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on idle")
	}

	events := journalEvents(t, journal)
	finals := finalIDSet(t, events)
	if len(finals) == 0 {
		t.Fatal("no finals journaled from the grown file")
	}
	// The grown file must match a single-shot run over the same records.
	var want int
	sess, err := core.NewSession(core.DefaultConfig(), func(e core.SessionEvent) {
		if !e.Truncated {
			want++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sess.Observe(r)
	}
	if len(finals) != want {
		t.Fatalf("daemon journaled %d finals, single-shot session %d", len(finals), want)
	}
}

// putRecordHeader frames one native record header.
func putRecordHeader(b []byte, r trace.Record) {
	_ = b[11]
	t := uint64(r.Time)
	for i := 0; i < 8; i++ {
		b[i] = byte(t >> (56 - 8*i))
	}
	b[8], b[9] = byte(r.WireLen>>8), byte(r.WireLen)
	b[10], b[11] = byte(len(r.Data)>>8), byte(len(r.Data))
}

// collectSink gathers published events in memory.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Name() string { return "collect" }
func (c *collectSink) Publish(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}
func (c *collectSink) Close(context.Context) error { return nil }
func (c *collectSink) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// TestDaemonFeedSource streams a native trace over TCP; the clean
// connection close completes the session, so the loops arrive as
// finals.
func TestDaemonFeedSource(t *testing.T) {
	recs := serveTestTrace(t, 21, 6)

	d, err := New(Config{
		Detector: core.DefaultConfig(),
		ExitIdle: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	d.AddSink(sink)
	addr, err := d.AddFeedSource("feed", "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(conn, testMeta())
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
	conn.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on idle")
	}

	finals := 0
	for _, e := range sink.all() {
		if e.Truncated {
			t.Fatalf("feed session produced truncated event %s despite clean close", e.ID)
		}
		if e.Source != "feed" || e.Link != "testlink" {
			t.Fatalf("bad event attribution: %+v", e)
		}
		finals++
	}
	if finals == 0 {
		t.Fatal("no events from the feed")
	}
}

// TestDaemonDirSource processes two rotated segments in order through
// one stitched session.
func TestDaemonDirSource(t *testing.T) {
	recs := serveTestTrace(t, 5, 8)
	dir := t.TempDir()
	k := len(recs) / 2

	meta1 := testMeta()
	writeTraceFile(t, filepath.Join(dir, "seg-000.lspt"), meta1, recs[:k])
	// Second segment: its record clock restarts at zero and its
	// absolute start advances by the cut time.
	cut := recs[k].Time
	meta2 := meta1
	meta2.Start = meta1.Start.Add(cut)
	seg2 := make([]trace.Record, 0, len(recs)-k)
	for _, r := range recs[k:] {
		r.Time -= cut
		seg2 = append(seg2, r)
	}
	writeTraceFile(t, filepath.Join(dir, "seg-001.lspt"), meta2, seg2)

	journal := filepath.Join(dir+"-out", "loops.jsonl")
	os.MkdirAll(filepath.Dir(journal), 0o755)
	d := newTestDaemon(t, journal, filepath.Join(dir+"-out", "cp.json"))
	if err := d.AddDirSource("dirsrc", dir); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on idle")
	}

	events := journalEvents(t, journal)
	finals := finalIDSet(t, events)
	if len(finals) == 0 {
		t.Fatal("no finals from the segment directory")
	}
	// Stitching must match a single session over the original records.
	var want int
	sess, err := core.NewSession(core.DefaultConfig(), func(e core.SessionEvent) {
		if !e.Truncated {
			want++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sess.Observe(r)
	}
	if len(finals) != want {
		t.Fatalf("dir source journaled %d finals, single session %d", len(finals), want)
	}
}

// TestDaemonHTTPAPI exercises /api/v1/health, /api/v1/loops and
// /api/v1/sources.
func TestDaemonHTTPAPI(t *testing.T) {
	recs := serveTestTrace(t, 3, 6)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	d := newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), filepath.Join(dir, "cp.json"))
	if err := d.AddTailSource("api-src", tracePath); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var health struct {
		Status  string `json:"status"`
		Records int64  `json:"records"`
	}
	getV1(t, srv.URL+"/api/v1/health", &health)
	if health.Status != "ok" {
		t.Fatalf("health status %q", health.Status)
	}
	if health.Records != int64(len(recs)) {
		t.Fatalf("health records %d, want %d", health.Records, len(recs))
	}

	var loops struct {
		Events []loopscope.LoopEvent `json:"events"`
	}
	getV1(t, srv.URL+"/api/v1/loops?limit=5", &loops)
	if len(loops.Events) == 0 {
		t.Fatal("no loops in the API")
	}
	if len(loops.Events) > 5 {
		t.Fatalf("limit=5 returned %d events", len(loops.Events))
	}
	for i := 1; i < len(loops.Events); i++ {
		if loops.Events[i-1].Event.EmittedAtNs < loops.Events[i].Event.EmittedAtNs {
			t.Fatal("events not newest-first")
		}
	}

	var sources struct {
		Sources []loopscope.Source `json:"sources"`
	}
	getV1(t, srv.URL+"/api/v1/sources", &sources)
	if len(sources.Sources) != 1 || sources.Sources[0].Name != "api-src" {
		t.Fatalf("bad sources payload: %+v", sources.Sources)
	}
	if sources.Sources[0].Records != int64(len(recs)) {
		t.Fatalf("source records %d, want %d", sources.Sources[0].Records, len(recs))
	}

	if status, _, _ := v1Get(t, srv.URL+"/api/v1/loops?limit=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bad limit returned %d", status)
	}
}

// TestDaemonSourceMetrics: take publishes a source's records counter
// and lag gauge in batches, yet both read exact wherever the source
// waits: once it has caught up with the file (a daemon without
// ExitIdle, which never reports idle), once it reports idle short of a
// record cut off mid-header, where it never catches up, and within
// feedPublish of a feed connection going quiet without closing. Exact
// means every record taken, and the lag /api/v1/sources shows.
func TestDaemonSourceMetrics(t *testing.T) {
	recs := serveTestTrace(t, 3, 6)
	if len(recs)%publishEvery == 0 {
		recs = recs[1:]
	}
	for _, c := range []struct {
		name     string
		partial  int           // bytes of a record header after the last record
		exitIdle time.Duration // 0: run until the records are in, then stop
		feed     bool          // a connection that stays open instead of a file
	}{
		{"caught-up", 0, 0, false},
		{"idle-short-of-a-record", 5, 250 * time.Millisecond, false},
		{"quiet-feed", 0, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			obs.VerifyNoLeaks(t)
			reg := obs.NewRegistry()
			d, err := New(Config{
				Detector:           core.DefaultConfig(),
				CheckpointInterval: 10 * time.Millisecond,
				ExitIdle:           c.exitIdle,
				TailPoll:           2 * time.Millisecond,
				Metrics:            reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			var addr net.Addr
			if c.feed {
				addr, err = d.AddFeedSource("m1", "tcp", "127.0.0.1:0")
			} else {
				tracePath := filepath.Join(t.TempDir(), "capture.lspt")
				writeTraceFile(t, tracePath, testMeta(), recs)
				f, err := os.OpenFile(tracePath, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(make([]byte, c.partial)); err != nil {
					t.Fatal(err)
				}
				f.Close()
				err = d.AddTailSource("m1", tracePath)
			}
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.Run(ctx) }()
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			if c.feed {
				conn, err := net.Dial(addr.Network(), addr.String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				w, err := trace.NewWriter(conn, testMeta())
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
			var sources struct {
				Sources []loopscope.Source `json:"sources"`
			}
			if c.exitIdle > 0 {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			counter := reg.Counter(obs.LabelMetric(obs.MetricServeSourceRecords, "source", "m1"))
			waitFor(t, "every record taken", func() bool {
				getV1(t, srv.URL+"/api/v1/sources", &sources)
				return len(sources.Sources) == 1 && sources.Sources[0].Records == int64(len(recs)) &&
					(!c.feed || counter.Value() == int64(len(recs)))
			})
			if got := counter.Value(); got != int64(len(recs)) {
				t.Errorf("records counter = %d, want the %d records taken", got, len(recs))
			}
			if lag := sources.Sources[0].LagBytes; lag != int64(c.partial) {
				t.Errorf("/api/v1/sources lag = %d bytes, want %d", lag, c.partial)
			}
			if got := reg.Gauge(obs.LabelMetric(obs.MetricServeSourceLagBytes, "source", "m1")).Value(); got != sources.Sources[0].LagBytes {
				t.Errorf("lag gauge = %d, /api/v1/sources says %d", got, sources.Sources[0].LagBytes)
			}
			if c.exitIdle == 0 {
				cancel()
				<-done
			}
		})
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRingPageNewest: a page from cursor 0 is the newest retained
// events, newest first — what the status page shows.
func TestRingPageNewest(t *testing.T) {
	r := NewRing(4)
	if got := r.PageAfter(0, 3, nil).Events; len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 0; i < 6; i++ {
		r.Publish(testEvent(i))
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d", r.Total())
	}
	got := r.PageAfter(0, 10, nil).Events
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, e := range got {
		if want := testEvent(5 - i).ID; e.Event.ID != want {
			t.Fatalf("newest[%d] = %s, want %s", i, e.Event.ID, want)
		}
	}
	if got := r.PageAfter(0, 2, nil).Events; len(got) != 2 || got[0].Event.ID != testEvent(5).ID {
		t.Fatalf("PageAfter(0, 2) = %v", got)
	}
}
