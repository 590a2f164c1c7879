package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// craftStream is a lone replica stream: one packet towards dst, tmpl's
// bytes under an IP ID of its own, seen n times gap apart from start,
// its TTL three lower each time.
func craftStream(tmpl trace.Record, dst [4]byte, id uint16, start, gap time.Duration, n int) []trace.Record {
	var out []trace.Record
	for i := 0; i < n; i++ {
		d := bytes.Clone(tmpl.Data)
		binary.BigEndian.PutUint16(d[4:6], id)
		d[8] = byte(200 - 3*i)
		copy(d[16:20], dst[:])
		out = append(out, trace.Record{Time: start + time.Duration(i)*gap, WireLen: tmpl.WireLen, Data: d})
	}
	return out
}

// writeSegments splits recs at the first record stamped at or after cut
// into two segment files, the second on its own clock.
func writeSegments(t *testing.T, dir string, recs []trace.Record, cut time.Duration) {
	t.Helper()
	k := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= cut })
	meta := testMeta()
	writeTraceFile(t, filepath.Join(dir, "seg-000.lspt"), meta, recs[:k])
	meta.Start = meta.Start.Add(cut)
	seg2 := make([]trace.Record, 0, len(recs)-k)
	for _, r := range recs[k:] {
		r.Time -= cut
		seg2 = append(seg2, r)
	}
	writeTraceFile(t, filepath.Join(dir, "seg-001.lspt"), meta, seg2)
}

// maskedEvents is a journal's every event, finals and truncated drains,
// as JSON with the wall-clock stamps left out, failing on a duplicate ID.
func maskedEvents(t *testing.T, path string) map[string]bool {
	t.Helper()
	finalIDSet(t, journalEvents(t, path))
	out := map[string]bool{}
	for _, e := range journalEvents(t, path) {
		e.EmittedAtNs, e.Prov = 0, nil
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out[string(b)] = true
	}
	return out
}

// TestDaemonDirResumeAcrossSegmentCut kills a directory source in its
// second segment and resumes it from the checkpoint's restart point,
// which lies in the first: a loop, a lone stream and a merge chain of
// three lone streams all span the segment cut, and two loops of the
// first segment are still open at the kill. The journal the two
// incarnations leave holds exactly the uninterrupted run's events —
// finals with their Seq, and the truncated drains at end of input —
// wall-clock stamps aside.
func TestDaemonDirResumeAcrossSegmentCut(t *testing.T) {
	const cut, kill = 17 * time.Second, 32 * time.Second
	recs := serveScriptedTrace(t, 11, []scriptedLoop{
		{0, 2 * time.Second}, {0, 8 * time.Second},
		{1, 4 * time.Second}, {1, 11 * time.Second},
		{2, 20 * time.Second}, {2, 27 * time.Second},
		{5, cut - 600*time.Millisecond},
	})
	tmpl := recs[0]
	recs = append(recs, craftStream(tmpl, [4]byte{10, 9, 1, 5}, 1, cut-20*time.Millisecond, 10*time.Millisecond, 5)...)
	for i, at := range []time.Duration{cut - 9*time.Second, cut - 3*time.Second, cut + 4*time.Second} {
		recs = append(recs, craftStream(tmpl, [4]byte{10, 9, 2, 5}, uint16(10+i), at, 10*time.Millisecond, 4)...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	segDir, out := t.TempDir(), t.TempDir()
	writeSegments(t, segDir, recs, cut)
	ctx := context.Background()

	refJournal := filepath.Join(out, "ref.jsonl")
	ref := newTestDaemon(t, refJournal, filepath.Join(out, "ref-cp.json"))
	if err := ref.AddDirSource("dirsrc", segDir); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(ctx); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := maskedEvents(t, refJournal)

	journal, cpPath := filepath.Join(out, "loops.jsonl"), filepath.Join(out, "cp.json")
	d1 := newTestDaemon(t, journal, cpPath)
	killAt := sort.Search(len(recs), func(i int) bool { return recs[i].Time >= kill })
	var seen int
	d1.testCrash = func(string, int64) bool {
		if seen++; seen < killAt {
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
	if src := cp.Sources["dirsrc"]; src.File != "seg-001.lspt" || src.Restart == nil || src.Restart.File != "seg-000.lspt" || src.Restart.Shed {
		t.Fatalf("checkpoint %+v restart %+v: want the position in seg-001.lspt and the restart point in seg-000.lspt", src, src.Restart)
	}

	d2 := newTestDaemon(t, journal, cpPath)
	d2.cfg.Metrics = obs.NewRegistry()
	if err := d2.AddDirSource("dirsrc", segDir); err != nil {
		t.Fatal(err)
	}
	if err := d2.Run(ctx); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	replayed := d2.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeRecordsReplayed, "source", "dirsrc")).Value()
	if replayed == 0 || replayed >= int64(killAt) {
		t.Errorf("resume re-fed %d records of the %d before the kill", replayed, killAt)
	}

	got := maskedEvents(t, journal)
	for e := range want {
		if !got[e] {
			t.Errorf("missing from the resumed journal: %s", e)
		}
	}
	for e := range got {
		if !want[e] {
			t.Errorf("not in the reference journal: %s", e)
		}
	}
}

// TestDaemonResumeCostsTheUndecidedTail: a tailed capture of loop-free
// traffic resumes from a restart point that trails the checkpointed
// position by what MaxReplicaGap holds, whether the capture ran for 60 s
// or for 600 s; the replayed counter shows the records re-fed.
func TestDaemonResumeCostsTheUndecidedTail(t *testing.T) {
	const pps = 100
	var replayed []int64
	for _, length := range []time.Duration{60 * time.Second, 600 * time.Second} {
		recs := traffic.Synthesize(traffic.SynthConfig{
			Duration: length, PacketsPerSecond: pps, Mix: traffic.DefaultMix(),
			DestPrefixes: []routing.Prefix{routing.MustParsePrefix("198.18.0.0/24"), routing.MustParsePrefix("198.18.1.0/24")},
			HopsMin:      3, HopsMax: 9,
		}, stats.NewRNG(5))
		dir := t.TempDir()
		path, cpPath := filepath.Join(dir, "capture.lspt"), filepath.Join(dir, "cp.json")
		writeTraceFile(t, path, testMeta(), recs)
		for i := 0; i < 2; i++ {
			d := newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
			d.cfg.Metrics = obs.NewRegistry()
			if err := d.AddTailSource("src", path); err != nil {
				t.Fatal(err)
			}
			if err := d.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				replayed = append(replayed, d.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeRecordsReplayed, "source", "src")).Value())
			}
		}
	}
	t.Logf("records re-fed on resume: %d after 60 s, %d after 600 s", replayed[0], replayed[1])
	bound := int64(2*core.DefaultConfig().MaxReplicaGap.Seconds()*pps) + markEvery
	for _, n := range replayed {
		if n == 0 || n > bound {
			t.Errorf("resumes re-fed %v records; want each within the undecided tail, at most %d", replayed, bound)
		}
	}
	if d := replayed[1] - replayed[0]; d > markEvery || d < -markEvery {
		t.Errorf("a resume after 600 s re-fed %d records, after 60 s %d", replayed[1], replayed[0])
	}
}

// TestDaemonParentCheckpointResumesFresh: a checkpoint written before
// restart points existed loads, and its source starts fresh, under a
// named reason: it publishes every event again from the file's first
// record, as a run without a checkpoint does.
func TestDaemonParentCheckpointResumesFresh(t *testing.T) {
	recs := serveTestTrace(t, 7, 10)
	dir := t.TempDir()
	path, cpPath := filepath.Join(dir, "capture.lspt"), filepath.Join(dir, "cp.json")
	writeTraceFile(t, path, testMeta(), recs)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	parent := &Checkpoint{Sources: map[string]SourceCheckpoint{"src": {Kind: "tail", Path: path, FileID: trace.FileID(st),
		Records: 1000, Offset: offsetAfter(t, path, 1000), Emitted: 1, HighWaterNs: int64(recs[999].Time)}}}
	if err := parent.Save(cpPath); err != nil {
		t.Fatal(err)
	}

	ref := newTestDaemon(t, filepath.Join(dir, "ref.jsonl"), "")
	if err := ref.AddTailSource("src", path); err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
	d.cfg.Metrics = obs.NewRegistry()
	if err := d.AddTailSource("src", path); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Daemon{ref, d} {
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := maskedEvents(t, filepath.Join(dir, "loops.jsonl")), maskedEvents(t, filepath.Join(dir, "ref.jsonl")); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed from a parent checkpoint: %d events, a fresh run %d", len(got), len(want))
	}
	if n := d.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeResumeFresh, "reason", "no_restart_point")).Value(); n != 1 {
		t.Errorf("no_restart_point counted %d times, want 1", n)
	}
}

// TestDaemonResumeAfterShedding: a checkpoint whose restart point the
// memory governor shed after says so, and the resume re-feeds from it
// all the same, under a named reason.
func TestDaemonResumeAfterShedding(t *testing.T) {
	recs := serveTestTrace(t, 7, 10)
	dir := t.TempDir()
	path, cpPath := filepath.Join(dir, "capture.lspt"), filepath.Join(dir, "cp.json")
	writeTraceFile(t, path, testMeta(), recs)
	var d *Daemon
	for i := 0; i < 2; i++ {
		d = newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), cpPath)
		d.cfg.Detector.MaxActiveStreams = 16
		d.cfg.Metrics = obs.NewRegistry()
		if err := d.AddTailSource("src", path); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cp, _, err := LoadCheckpoint(cpPath)
	if err != nil || cp == nil || cp.Sources["src"].Restart == nil || !cp.Sources["src"].Restart.Shed {
		t.Fatalf("checkpoint %+v (%v): want a restart point marked shed", cp, err)
	}
	reason := d.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeResumeFresh, "reason", "governor_shed_since_restart")).Value()
	replayed := d.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricServeRecordsReplayed, "source", "src")).Value()
	if reason != 1 || replayed == 0 {
		t.Errorf("resume after shedding: reason counted %d times, %d records re-fed", reason, replayed)
	}
}
