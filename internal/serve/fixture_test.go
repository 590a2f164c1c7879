package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"loopscope/internal/obs"
)

// copyFixture copies a testdata file (written by the commit before
// internal/durable existed) into a scratch directory, since opening a
// journal or quarantining a checkpoint may modify the file.
func copyFixture(t *testing.T, name string) (path string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestParentJournalFixture: a journal written before the port opens
// untouched, dedups every event it holds, and the same events written
// by this build produce the same bytes.
func TestParentJournalFixture(t *testing.T) {
	path, want := copyFixture(t, "parent_journal.jsonl")
	var events []Event
	for _, line := range splitLines(want) {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("fixture line %q: %v", line, err)
		}
		events = append(events, e)
	}
	reg := obs.NewRegistry()
	j, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		j.Publish(e)
	}
	if err := j.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricServeJournalDup).Value(); got != int64(len(events)) {
		t.Errorf("%d of %d fixture events deduplicated", got, len(events))
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("opening the fixture changed it:\n got %s\nwant %s", got, want)
	}

	fresh := filepath.Join(t.TempDir(), "fresh.jsonl")
	j2, err := NewJournal(JournalOptions{Path: fresh})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		j2.Publish(e)
	}
	j2.Close(context.Background())
	if got, _ := os.ReadFile(fresh); !bytes.Equal(got, want) {
		t.Errorf("journal line format changed:\n got %s\nwant %s", got, want)
	}
}

// TestParentCheckpointFixture: a checkpoint written before the port
// loads with every position intact, and saving it again yields the
// same document (modulo the save timestamp).
func TestParentCheckpointFixture(t *testing.T) {
	path, want := copyFixture(t, "parent_checkpoint.json")
	cp, quarantined, err := loadCheckpoint(path)
	if err != nil || quarantined || cp == nil {
		t.Fatalf("fixture did not load: cp=%v quarantined=%v err=%v", cp, quarantined, err)
	}
	if got := cp.Sources["bb1"]; got.Kind != "tail" || got.Records != 120000 || got.Offset != 5760064 || got.Emitted != 3 || got.FileID != "2049:77" {
		t.Errorf("bb1 = %+v", got)
	}
	if got := cp.Sources["rot"]; got.Kind != "dir" || got.File != "seg-002.lspt" || got.TimeBaseNs != 60e9 {
		t.Errorf("rot = %+v", got)
	}
	if got := cp.Sources["feed"]; got.Kind != "feed" || got.Records != 42 || got.Offset != 0 {
		t.Errorf("feed = %+v", got)
	}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	stamp := regexp.MustCompile(`"savedAtNs": \d+`)
	if !bytes.Equal(stamp.ReplaceAll(got, nil), stamp.ReplaceAll(want, nil)) {
		t.Errorf("checkpoint format changed:\n got %s\nwant %s", got, want)
	}
}
