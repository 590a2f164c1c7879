package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loopscope/internal/obs"
)

// testEvent builds a minimal distinct event.
func testEvent(i int) Event {
	return Event{
		ID:     fmt.Sprintf("%016x", i),
		Source: "test", Prefix: "198.18.0.0/24",
		Seq: i, StartNs: int64(i) * 1000, EndNs: int64(i)*1000 + 500,
	}
}

// journalIDs reads all IDs from a journal file.
func journalIDs(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ids []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		ids = append(ids, e.ID)
	}
	return ids
}

func TestJournalAppendAndDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Publish(testEvent(i))
	}
	j.Publish(testEvent(2)) // duplicate in-process
	if err := j.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reopen (a daemon restart) and publish an overlapping window.
	j2, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 8; i++ {
		j2.Publish(testEvent(i))
	}
	j2.Close(context.Background())

	ids := journalIDs(t, path)
	if len(ids) != 8 {
		t.Fatalf("journal has %d lines, want 8: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s in journal", id)
		}
		seen[id] = true
	}
	if got := reg.Counter(obs.MetricServeJournalDup).Value(); got != 3 {
		t.Fatalf("duplicate counter = %d, want 3", got)
	}
}

func TestJournalTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	j, err := NewJournal(JournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(0))
	j.Close(context.Background())

	// Simulate a crash mid-write: a torn, non-JSON tail line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id": "0000000000000`)
	f.Close()

	j2, err := NewJournal(JournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	j2.Publish(testEvent(0)) // still deduped despite the torn tail
	j2.Publish(testEvent(1))
	j2.Close(context.Background())

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count0 := 0
	for _, id := range journalIDsLoose(data) {
		if id == testEvent(0).ID {
			count0++
		}
	}
	if count0 != 1 {
		t.Fatalf("event 0 appears %d times, want 1", count0)
	}
}

// TestJournalReopenRetryAfterFailedRotation verifies Publish retries
// opening the live file when a rotation left it closed, instead of
// silently dropping every future event.
func TestJournalReopenRetryAfterFailedRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(0))

	// Simulate a rotation whose reopen failed: no live handle.
	j.mu.Lock()
	j.file.Close()
	j.mu.Unlock()

	j.Publish(testEvent(1))
	j.Close(context.Background())

	ids := journalIDs(t, path)
	if len(ids) != 2 {
		t.Fatalf("journal has %d lines, want 2 (reopen retry lost one): %v", len(ids), ids)
	}
	if got := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "journal")).Value(); got != 0 {
		t.Fatalf("dropped counter = %d, want 0", got)
	}
}

// TestJournalDropsCountedAndLogged verifies a journal that cannot
// write parks the event for retry (counted, logged), and that events
// still parked at Close — plus publishes after Close — are counted as
// drops instead of disappearing silently.
func TestJournalDropsCountedAndLogged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loops.jsonl")
	reg := obs.NewRegistry()
	var logBuf strings.Builder
	j, err := NewJournal(JournalOptions{
		Path: path, Metrics: reg,
		Logger: obs.NewLogger(obs.LogOptions{W: &logBuf, NoTimestamp: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(0))

	// Make the live file unrecoverable: the path now names a
	// directory, so the reopen retry fails too.
	j.mu.Lock()
	j.file.Close()
	j.mu.Unlock()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	j.Publish(testEvent(1))
	if got := len(j.pending); got != 1 {
		t.Fatalf("pending = %d, want 1 (failed write should park, not drop)", got)
	}
	if got := reg.Counter(obs.MetricJournalRequeued).Value(); got != 1 {
		t.Fatalf("requeued counter = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "journal") {
		t.Fatalf("parked write was not logged: %q", logBuf.String())
	}

	// Close retries once more; the path is still a directory, so the
	// parked event becomes a counted drop.
	drops := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "journal"))
	j.Close(context.Background())
	if got := drops.Value(); got != 1 {
		t.Fatalf("dropped counter after Close = %d, want 1", got)
	}

	// Publish after Close is also counted, never silent.
	j.Publish(testEvent(2))
	if got := drops.Value(); got != 2 {
		t.Fatalf("dropped counter after post-Close publish = %d, want 2", got)
	}
}

// TestJournalPendingRetryRecovers verifies the transient-failure path:
// writes that fail park events, a later Publish retries them in order
// once the path is writable again, and nothing is lost or reordered.
func TestJournalPendingRetryRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loops.jsonl")
	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close(context.Background())

	j.Publish(testEvent(0))

	// Break the live file: path becomes a directory.
	j.mu.Lock()
	j.file.Close()
	j.mu.Unlock()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(1))
	j.Publish(testEvent(2))
	if got := len(j.pending); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}

	// Heal the path; the next Publish drains the queue first.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	j.Publish(testEvent(3))
	if got := len(j.pending); got != 0 {
		t.Fatalf("pending after recovery = %d, want 0", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := journalIDsLoose(data)
	want := []string{testEvent(1).ID, testEvent(2).ID, testEvent(3).ID}
	if len(ids) != len(want) {
		t.Fatalf("journal has %d events after recovery, want %d (%v)", len(ids), len(want), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("journal order after recovery = %v, want %v", ids, want)
		}
	}
	if got := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "journal")).Value(); got != 0 {
		t.Fatalf("dropped counter = %d, want 0 (transient failure must not drop)", got)
	}
}

// journalIDsLoose extracts IDs, skipping unparseable lines.
func journalIDsLoose(data []byte) []string {
	var ids []string
	for _, line := range splitLines(data) {
		var e Event
		if json.Unmarshal(line, &e) == nil && e.ID != "" {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// allSegmentIDs counts every event ID across the live journal and its
// rotated segments.
func allSegmentIDs(t *testing.T, path string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, p := range append(retentionSegments(t, path), path) {
		for _, id := range journalIDs(t, p) {
			counts[id]++
		}
	}
	return counts
}

// TestJournalRotation drives size-based rotation with no retention
// horizon (the library zero value): every rotated file is a
// path.<timestamp> segment, nothing is ever pruned, no ID is lost or
// duplicated across segments, and a reopen still dedups IDs that only
// live in rotated segments.
func TestJournalRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loops.jsonl")
	// Each line is ~120 bytes; cap at ~3 lines per file.
	opts := JournalOptions{Path: path, MaxBytes: 360}
	j, err := NewJournal(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		j.Publish(testEvent(i))
	}
	// Rotation must not forget IDs: every repeat is still a dup.
	for i := 0; i < 10; i++ {
		j.Publish(testEvent(i))
	}
	j.Close(context.Background())

	if segs := retentionSegments(t, path); len(segs) < 3 {
		t.Fatalf("10 events at <= 3 per file left segments %v, want at least 3", segs)
	}
	if _, err := os.Stat(path + ".1"); err == nil {
		t.Fatal("rotation wrote a counted generation (path.1)")
	}
	seen := allSegmentIDs(t, path)
	if len(seen) != 10 {
		t.Fatalf("%d distinct events retained, want 10", len(seen))
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("id %s appears %d times across segments", id, n)
		}
	}
	if ids := journalIDs(t, path); len(ids) == 0 || ids[len(ids)-1] != testEvent(9).ID {
		t.Fatalf("live file holds %v, want it to end with the newest event", ids)
	}

	j2, err := NewJournal(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := range seen {
		j2.Publish(Event{ID: id, Source: "test"})
	}
	j2.Close(context.Background())
	for id, n := range allSegmentIDs(t, path) {
		if n > 1 {
			t.Fatalf("id %s duplicated after reopen", id)
		}
	}
}
