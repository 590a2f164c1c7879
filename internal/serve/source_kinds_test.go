package serve

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/resil"
	"loopscope/internal/trace"
)

// These tests pin what the three source kinds — a tailed file, a
// rotated-capture directory and a feed socket — have in common and
// where they differ, through the daemon's public surface and its
// checkpoint file only.

// loopKey is a journaled loop's identity independent of its event ID.
type loopKey struct {
	prefix     string
	start, end int64
}

// loopKeys returns the (prefix, start, end) set of events, final and
// truncated together.
func loopKeys(events []Event) map[loopKey]bool {
	out := map[loopKey]bool{}
	for _, e := range events {
		out[loopKey{e.Prefix, e.StartNs, e.EndNs}] = true
	}
	return out
}

// idSets splits events into final and truncated ID sets.
func idSets(events []Event) (finals, truncated map[string]bool) {
	finals, truncated = map[string]bool{}, map[string]bool{}
	for _, e := range events {
		if e.Truncated {
			truncated[e.ID] = true
		} else {
			finals[e.ID] = true
		}
	}
	return finals, truncated
}

// sameSet reports whether two sets hold the same members.
func sameSet[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// looseEvents parses the journal lines a running daemon has written so
// far, skipping a torn last line.
func looseEvents(path string) []Event {
	data, _ := os.ReadFile(path)
	var out []Event
	for _, line := range splitLines(data) {
		var e Event
		if len(line) > 0 && json.Unmarshal(line, &e) == nil {
			out = append(out, e)
		}
	}
	return out
}

// sendFeed writes recs to a feed listener as one native stream. With
// tornTail set the stream is cut inside the record after the last one.
func sendFeed(t *testing.T, addr net.Addr, recs []trace.Record, tornTail bool) {
	t.Helper()
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
	if tornTail {
		var hdr [12]byte
		putRecordHeader(hdr[:], recs[len(recs)-1])
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(recs[len(recs)-1].Data[:3]); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 15s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runToIdle runs d until it stops on idle, failing after 30s.
func runToIdle(t *testing.T, d *Daemon, feed func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()
	if feed != nil {
		feed()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit on idle")
	}
}

// sessionEvents runs recs through one session, ended by Complete or
// Drain, and renders its emissions as the daemon would for source name.
func sessionEvents(t *testing.T, name string, recs []trace.Record, complete bool) []Event {
	t.Helper()
	var out []Event
	sess, err := core.NewSession(core.DefaultConfig(), func(se core.SessionEvent) {
		out = append(out, newEvent(name, "", "", se, time.Now()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sess.Observe(r)
	}
	if complete {
		sess.Complete()
	} else {
		sess.Drain()
	}
	return out
}

// TestSourceKindsAgree reads one capture under one source name as a
// tailed file, as a one-segment directory and as a feed. All three see
// the same loops; tail and dir journal the same IDs; the feed, whose
// clean close completes the session, journals as finals what the other
// two drain as truncated at idle exit.
func TestSourceKindsAgree(t *testing.T) {
	recs := serveTestTrace(t, 17, 8)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)
	segDir := filepath.Join(dir, "segs")
	if err := os.Mkdir(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTraceFile(t, filepath.Join(segDir, "seg-000.lspt"), testMeta(), recs)

	tailJ, dirJ, feedJ := filepath.Join(dir, "tail.jsonl"), filepath.Join(dir, "dir.jsonl"), filepath.Join(dir, "feed.jsonl")
	d := newTestDaemon(t, tailJ, "")
	if err := d.AddTailSource("trace", tracePath); err != nil {
		t.Fatal(err)
	}
	runToIdle(t, d, nil)
	d = newTestDaemon(t, dirJ, "")
	if err := d.AddDirSource("trace", segDir); err != nil {
		t.Fatal(err)
	}
	runToIdle(t, d, nil)
	d = newTestDaemon(t, feedJ, "")
	addr, err := d.AddFeedSource("trace", "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runToIdle(t, d, func() { sendFeed(t, addr, recs, false) })

	tailEv, dirEv, feedEv := journalEvents(t, tailJ), journalEvents(t, dirJ), journalEvents(t, feedJ)
	for _, evs := range [][]Event{tailEv, dirEv, feedEv} {
		finalIDSet(t, evs) // no duplicate IDs
	}
	if len(tailEv) == 0 {
		t.Fatal("tail journaled nothing; trace too quiet")
	}
	if k := loopKeys(tailEv); !sameSet(k, loopKeys(dirEv)) || !sameSet(k, loopKeys(feedEv)) {
		t.Fatalf("loop sets differ: tail %d, dir %d, feed %d", len(k), len(loopKeys(dirEv)), len(loopKeys(feedEv)))
	}
	tailF, tailT := idSets(tailEv)
	dirF, dirT := idSets(dirEv)
	feedF, feedT := idSets(feedEv)
	if !sameSet(tailF, dirF) || !sameSet(tailT, dirT) {
		t.Errorf("tail and dir journaled different IDs: finals %d/%d, truncated %d/%d", len(tailF), len(dirF), len(tailT), len(dirT))
	}
	if len(tailT) == 0 {
		t.Fatal("tail drained nothing at idle exit; the feed relation is vacuous")
	}
	if len(feedT) != 0 {
		t.Errorf("feed journaled %d truncated events despite a clean close", len(feedT))
	}
	want := map[string]bool{}
	for id := range tailF {
		want[id] = true
	}
	for id := range tailT {
		want[id[:strings.LastIndex(id, "-t")]] = true
	}
	if !sameSet(feedF, want) {
		t.Errorf("feed finals (%d) are not tail finals plus tail truncated without suffix (%d)", len(feedF), len(want))
	}
}

// TestDaemonTailRotation renames the tailed file away and creates a new
// one at its path: the old session drains as truncated, the new file is
// read from its first record under its own FileID, and the restart is
// expected operation, not a failure that escalates the backoff.
func TestDaemonTailRotation(t *testing.T) {
	recsA, recsB := serveTestTrace(t, 31, 6), serveTestTrace(t, 37, 6)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recsA)
	cpPath, journal := filepath.Join(dir, "cp.json"), filepath.Join(dir, "loops.jsonl")
	d, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: time.Hour,
		TailPoll:           2 * time.Millisecond,
		RestartPolicy:      resil.Policy{Base: 20 * time.Millisecond, Max: 2 * time.Second, ResetAfter: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{Path: journal})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	if err := d.AddTailSource("trace", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	s := d.sources[0]
	waitFor(t, "the first file", func() bool { return s.info().Records == int64(len(recsA)) })

	if err := os.Rename(tracePath, tracePath+".1"); err != nil {
		t.Fatal(err)
	}
	writeTraceFile(t, tracePath, testMeta(), recsB)
	st, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	newID := fileIDOf(t, tracePath)
	waitFor(t, "the new file", func() bool {
		cp := s.snapshot()
		return cp.FileID == newID && cp.Records == int64(len(recsB))
	})

	_, gotT := idSets(looseEvents(journal))
	_, wantT := idSets(sessionEvents(t, "trace", recsA, false))
	if len(wantT) == 0 || !sameSet(gotT, wantT) {
		t.Errorf("rotation drained %d truncated events, the old file's session holds %d", len(gotT), len(wantT))
	}
	if inf := s.info(); inf.Records != int64(len(recsB)) || inf.Restarts != 1 {
		t.Errorf("after rotation: session records %d (want %d from record 0), restarts %d (want 1)", inf.Records, len(recsB), inf.Restarts)
	}
	if h := d.Health().Get("source:trace"); h != resil.Healthy {
		t.Errorf("source health after rotation = %v, want healthy", h)
	}
	if err := d.checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, _, err := loadCheckpoint(cpPath)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := cp.Sources["trace"]; got.FileID != newID || got.Records != int64(len(recsB)) || got.Offset != st.Size() {
		t.Errorf("checkpoint after rotation = %+v, want FileID %s, %d records ending at %d", got, newID, len(recsB), st.Size())
	}
}

// TestDaemonFeedCutThenFresh cuts a feed connection inside a record:
// its open loops arrive truncated. The next connection gets a fresh
// session, whose finals number from Seq 0 again.
func TestDaemonFeedCutThenFresh(t *testing.T) {
	recs := serveTestTrace(t, 41, 6)
	half := len(recs) / 2
	d, err := New(Config{Detector: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	d.AddSink(sink)
	addr, err := d.AddFeedSource("trace", "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	first := sessionEvents(t, "trace", recs[:half], false)
	if _, tr := idSets(first); len(tr) == 0 {
		t.Fatal("the cut prefix holds no open loop; nothing to truncate")
	}
	sendFeed(t, addr, recs[:half], true)
	waitFor(t, "the cut connection's events", func() bool { return len(sink.all()) == len(first) })
	gotF, gotT := idSets(sink.all())
	if wantF, wantT := idSets(first); !sameSet(gotF, wantF) || !sameSet(gotT, wantT) {
		t.Errorf("cut connection published %d/%d final/truncated, the drained prefix session %d/%d", len(gotF), len(gotT), len(wantF), len(wantT))
	}

	second := sessionEvents(t, "trace", recs, true)
	sendFeed(t, addr, recs, false)
	waitFor(t, "the second connection's events", func() bool { return len(sink.all()) == len(first)+len(second) })
	for i, e := range sink.all()[len(first):] {
		if e.Truncated || e.Seq != i {
			t.Fatalf("second connection event %d: truncated %v, seq %d; want final with seq %d", i, e.Truncated, e.Seq, i)
		}
	}
	if len(second) == 0 {
		t.Fatal("second connection completed no loops")
	}
}

// TestDaemonDirCheckpointedSegmentDeleted resumes a dir source whose
// checkpointed segment has been deleted: it starts fresh on what the
// directory still holds, exactly as a run without a checkpoint would.
func TestDaemonDirCheckpointedSegmentDeleted(t *testing.T) {
	recs := serveTestTrace(t, 43, 6)
	out := t.TempDir()
	segDir, refDir := filepath.Join(out, "segs"), filepath.Join(out, "ref")
	for _, d := range []string{segDir, refDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		writeTraceFile(t, filepath.Join(d, "seg-001.lspt"), testMeta(), recs)
	}
	cpPath := filepath.Join(out, "cp.json")
	stale := &Checkpoint{Sources: map[string]SourceCheckpoint{"trace": {
		Kind: "dir", Path: segDir, File: "seg-000.lspt",
		Records: 100, Offset: 4000, Emitted: 1, HighWaterNs: 5e9, TimeBaseNs: 7e9,
	}}}
	if err := stale.Save(cpPath); err != nil {
		t.Fatal(err)
	}

	refJ, journal := filepath.Join(out, "ref.jsonl"), filepath.Join(out, "loops.jsonl")
	ref := newTestDaemon(t, refJ, "")
	if err := ref.AddDirSource("trace", refDir); err != nil {
		t.Fatal(err)
	}
	runToIdle(t, ref, nil)
	d := newTestDaemon(t, journal, cpPath)
	if err := d.AddDirSource("trace", segDir); err != nil {
		t.Fatal(err)
	}
	runToIdle(t, d, nil)

	refF, refT := idSets(journalEvents(t, refJ))
	gotF, gotT := idSets(journalEvents(t, journal))
	if len(refF)+len(refT) == 0 || !sameSet(refF, gotF) || !sameSet(refT, gotT) {
		t.Errorf("resume past a deleted segment journaled %d/%d final/truncated, a fresh run %d/%d", len(gotF), len(gotT), len(refF), len(refT))
	}
	cp, _, err := loadCheckpoint(cpPath)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := cp.Sources["trace"]; got.File != "seg-001.lspt" || got.Records != int64(len(recs)) || got.TimeBaseNs != 0 {
		t.Errorf("checkpoint = %+v, want seg-001.lspt read from record 0 on its own clock", got)
	}
}

// fieldsDaemon is a daemon whose checkpoint is written only when a
// test forces it, with a journal sink.
func fieldsDaemon(t *testing.T, journal, cpPath string) *Daemon {
	t.Helper()
	d, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: time.Hour,
		ExitIdle:           250 * time.Millisecond,
		TailPoll:           2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{Path: journal})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	return d
}

// forceCheckpointAt makes d write its checkpoint once the source has
// observed n records and returns where the entry will be stored.
func forceCheckpointAt(t *testing.T, d *Daemon, cpPath string, n int) *SourceCheckpoint {
	got := new(SourceCheckpoint)
	seen := 0
	d.testCrash = func(name string, _ int64) bool {
		if seen++; seen == n {
			if err := d.checkpoint(); err != nil {
				t.Errorf("forced checkpoint: %v", err)
			}
			cp, _, err := loadCheckpoint(cpPath)
			if err != nil || cp == nil {
				t.Errorf("forced checkpoint did not load: %v", err)
			} else {
				*got = cp.Sources[name]
			}
		}
		return false
	}
	return got
}

// offsetAfter is the byte offset at which the first n records of a
// native trace file end.
func offsetAfter(t *testing.T, path string, n int) int64 {
	t.Helper()
	tr, err := trace.OpenTail(path, trace.TailOptions{IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for tr.Records() < int64(n) {
		if _, err := tr.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return tr.Offset()
}

// TestSourceCheckpointFields asserts, field by field, the checkpoint
// entry each kind writes at a forced checkpoint mid-capture, the
// restart point included: the session's own, rounded down to the
// records the daemon marks (the first, then one markEvery records on,
// stamped later than every record before it).
func TestSourceCheckpointFields(t *testing.T) {
	recs := serveTestTrace(t, 47, 8)
	n := len(recs) * 2 / 3
	probe, err := core.NewSession(core.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var marks []int64
	for i, r := range recs[:n] {
		if i == 0 || int64(i) >= marks[len(marks)-1]+markEvery && r.Time > probe.HighWater() {
			marks = append(marks, int64(i))
		}
		probe.Observe(r)
	}
	emitted, hw := probe.Emitted(), int64(probe.HighWater())
	restart, exact := probe.RestartPoint(func(i int64) int64 {
		return marks[sort.Search(len(marks), func(j int) bool { return marks[j] > i })-1]
	})
	if !exact || restart == 0 || restart >= int64(n) {
		t.Fatalf("restart point %d of %d records (exact %v); the trace is not the one described", restart, n, exact)
	}

	t.Run("tail", func(t *testing.T) {
		dir := t.TempDir()
		path, cpPath := filepath.Join(dir, "capture.lspt"), filepath.Join(dir, "cp.json")
		writeTraceFile(t, path, testMeta(), recs)
		d := fieldsDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
		got := forceCheckpointAt(t, d, cpPath, n)
		if err := d.AddTailSource("trace", path); err != nil {
			t.Fatal(err)
		}
		runToIdle(t, d, nil)
		want := SourceCheckpoint{Kind: "tail", Path: path, FileID: fileIDOf(t, path),
			Records: int64(n), Offset: offsetAfter(t, path, n), Emitted: emitted, HighWaterNs: hw,
			Restart: &restartPoint{Records: restart, Offset: offsetAfter(t, path, int(restart))}}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("tail checkpoint\n got %+v\nwant %+v", *got, want)
		}
	})

	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		segDir, cpPath := filepath.Join(dir, "segs"), filepath.Join(dir, "cp.json")
		if err := os.Mkdir(segDir, 0o755); err != nil {
			t.Fatal(err)
		}
		k := len(recs) / 2
		meta1 := testMeta()
		writeTraceFile(t, filepath.Join(segDir, "seg-000.lspt"), meta1, recs[:k])
		cut := recs[k].Time
		meta2 := meta1
		meta2.Start = meta1.Start.Add(cut)
		seg2 := make([]trace.Record, 0, len(recs)-k)
		for _, r := range recs[k:] {
			r.Time -= cut
			seg2 = append(seg2, r)
		}
		seg2Path := filepath.Join(segDir, "seg-001.lspt")
		writeTraceFile(t, seg2Path, meta2, seg2)
		d := fieldsDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
		got := forceCheckpointAt(t, d, cpPath, n)
		if err := d.AddDirSource("trace", segDir); err != nil {
			t.Fatal(err)
		}
		runToIdle(t, d, nil)
		want := SourceCheckpoint{Kind: "dir", Path: segDir, File: "seg-001.lspt",
			Records: int64(n - k), Offset: offsetAfter(t, seg2Path, n-k), Emitted: emitted, HighWaterNs: hw,
			TimeBaseNs: int64(cut), Restart: &restartPoint{File: "seg-001.lspt", Records: restart - int64(k),
				Offset: offsetAfter(t, seg2Path, int(restart)-k), TimeBaseNs: int64(cut)}}
		if restart < int64(k) {
			want.Restart = &restartPoint{File: "seg-000.lspt", Records: restart,
				Offset: offsetAfter(t, filepath.Join(segDir, "seg-000.lspt"), int(restart))}
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("dir checkpoint\n got %+v\nwant %+v", *got, want)
		}
	})

	t.Run("feed", func(t *testing.T) {
		dir := t.TempDir()
		cpPath := filepath.Join(dir, "cp.json")
		d := fieldsDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
		got := forceCheckpointAt(t, d, cpPath, n)
		addr, err := d.AddFeedSource("trace", "tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		runToIdle(t, d, func() { sendFeed(t, addr, recs, false) })
		want := SourceCheckpoint{Kind: "feed", Path: "127.0.0.1:0",
			Records: int64(n), Emitted: emitted, HighWaterNs: hw, Restart: &restartPoint{Records: restart}}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("feed checkpoint\n got %+v\nwant %+v", *got, want)
		}
	})
}
