package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"loopscope/internal/obs"
)

// retentionSegments lists the rotated time-partitioned segment paths
// (path.<digits>) next to a journal, sorted.
func retentionSegments(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, m := range matches {
		suffix := strings.TrimPrefix(m, path+".")
		if suffix != "" && strings.Trim(suffix, "0123456789") == "" {
			segs = append(segs, m)
		}
	}
	sort.Strings(segs)
	return segs
}

// TestJournalRetentionRotatesAndPrunes drives a retention-mode
// journal with a pinned clock: the live file rotates into a
// timestamped segment once its age passes Retain/8, and segments
// older than Retain are deleted at the next rotation.
func TestJournalRetentionRotatesAndPrunes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	reg := obs.NewRegistry()
	cur := time.Unix(1700000000, 0)
	j, err := NewJournal(JournalOptions{
		Path: path, Metrics: reg,
		Retain: 8 * time.Hour, // segment span = 1h
		Now:    func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}

	j.Publish(testEvent(0))
	if segs := retentionSegments(t, path); len(segs) != 0 {
		t.Fatalf("segments after first write: %v, want none", segs)
	}

	// One span later the next write first retires the live file.
	cur = cur.Add(time.Hour)
	j.Publish(testEvent(1))
	segs := retentionSegments(t, path)
	if len(segs) != 1 {
		t.Fatalf("segments after rotation: %v, want 1", segs)
	}
	wantSeg := fmt.Sprintf("%s.%d", path, cur.Unix())
	if segs[0] != wantSeg {
		t.Errorf("segment name %s, want rotation-stamped %s", segs[0], wantSeg)
	}
	if ids := journalIDs(t, segs[0]); len(ids) != 1 || ids[0] != testEvent(0).ID {
		t.Errorf("segment holds %v, want [event 0]", ids)
	}
	if ids := journalIDs(t, path); len(ids) != 1 || ids[0] != testEvent(1).ID {
		t.Errorf("live file holds %v, want [event 1]", ids)
	}

	// Far past Retain: the next rotation prunes the expired segment.
	cur = cur.Add(9 * time.Hour)
	j.Publish(testEvent(2))
	segs = retentionSegments(t, path)
	if len(segs) != 1 {
		t.Fatalf("segments after prune: %v, want only the fresh one", segs)
	}
	if segs[0] == wantSeg {
		t.Errorf("expired segment %s survived pruning", wantSeg)
	}
	if n := reg.Snapshot().Counters[obs.MetricJournalSegmentsPruned]; n != 1 {
		t.Errorf("pruned counter = %d, want 1", n)
	}
	if err := j.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRetentionDedupAcrossSegments reopens a retention-mode
// journal and requires the dedup index to span every surviving
// segment, not just the live file.
func TestJournalRetentionDedupAcrossSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	cur := time.Unix(1700000000, 0)
	now := func() time.Time { return cur }
	opts := JournalOptions{Path: path, Retain: 8 * time.Hour, Now: now}

	j, err := NewJournal(opts)
	if err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(0))
	j.Publish(testEvent(1))
	cur = cur.Add(time.Hour)
	j.Publish(testEvent(2)) // rotates 0,1 into a segment
	if err := j.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if segs := retentionSegments(t, path); len(segs) != 1 {
		t.Fatalf("segments before reopen: %v, want 1", segs)
	}

	// A restart: replayed IDs from the rotated segment and the live
	// file must both be suppressed.
	j2, err := NewJournal(opts)
	if err != nil {
		t.Fatal(err)
	}
	j2.Publish(testEvent(0))
	j2.Publish(testEvent(2))
	j2.Publish(testEvent(3))
	if err := j2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, seg := range append(retentionSegments(t, path), path) {
		for _, id := range journalIDs(t, seg) {
			counts[id]++
		}
	}
	for i := 0; i < 4; i++ {
		if counts[testEvent(i).ID] != 1 {
			t.Errorf("event %d journaled %d times, want exactly once", i, counts[testEvent(i).ID])
		}
	}
}

// TestJournalRetentionPrunesAtOpen checks expired segments are
// deleted when the journal opens, that fresh ones (including a
// nanosecond-stamped collision fallback) survive, and that files with
// non-numeric suffixes are never touched.
func TestJournalRetentionPrunesAtOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loops.jsonl")
	cur := time.Unix(1700000000, 0)

	stale := fmt.Sprintf("%s.%d", path, cur.Add(-10*time.Hour).Unix())
	fresh := fmt.Sprintf("%s.%d", path, cur.Add(-time.Hour).Unix())
	freshNano := fmt.Sprintf("%s.%d", path, cur.Add(-time.Hour).UnixNano())
	bak := path + ".bak"
	for _, p := range []string{stale, fresh, freshNano, bak} {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{
		Path: path, Metrics: reg,
		Retain: 8 * time.Hour,
		Now:    func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close(context.Background())

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale segment %s survived open", stale)
	}
	for _, p := range []string{fresh, freshNano, bak} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s removed at open: %v", p, err)
		}
	}
	if n := reg.Snapshot().Counters[obs.MetricJournalSegmentsPruned]; n != 1 {
		t.Errorf("pruned counter = %d, want 1", n)
	}
}

// TestJournalRetentionKeepsCountedGenerations: path.1..path.3 written
// by a build that rotated into counted generations are not rotation
// instants in 1970. Opening with a retention horizon must leave them
// on disk and still dedup against the events they hold.
func TestJournalRetentionKeepsCountedGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	line, err := json.Marshal(testEvent(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []string{".1", ".2", ".3"} {
		if err := os.WriteFile(path+gen, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{Path: path, Metrics: reg, Retain: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close(context.Background())
	for _, gen := range []string{".1", ".2", ".3"} {
		if _, err := os.Stat(path + gen); err != nil {
			t.Errorf("counted generation %s pruned at open: %v", gen, err)
		}
	}
	if n := reg.Snapshot().Counters[obs.MetricJournalSegmentsPruned]; n != 0 {
		t.Errorf("pruned counter = %d, want 0", n)
	}
	j.Publish(testEvent(7))
	if got := reg.Counter(obs.MetricServeJournalDup).Value(); got != 1 {
		t.Errorf("event held only by path.1 was not deduplicated (dup counter %d)", got)
	}
}

// TestJournalRetentionSpanClamp pins the segment-span clamp: Retain/8
// never drops below a minute or grows past a day.
func TestJournalRetentionSpanClamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	for _, tc := range []struct {
		retain time.Duration
		want   time.Duration
	}{
		{4 * time.Minute, time.Minute},        // 30s raw, clamped up
		{8 * time.Hour, time.Hour},            // in range
		{14 * 24 * time.Hour, 24 * time.Hour}, // 42h raw, clamped down
	} {
		j, err := NewJournal(JournalOptions{Path: path, Retain: tc.retain})
		if err != nil {
			t.Fatal(err)
		}
		if got := j.segmentSpan(); got != tc.want {
			t.Errorf("retain %v: span %v, want %v", tc.retain, got, tc.want)
		}
		j.Close(context.Background())
	}
}
