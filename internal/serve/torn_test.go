package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/resil"
)

// seedJournal writes n events and returns the file's bytes and the
// offset where the last record begins.
func seedJournal(t *testing.T, path string, n int) (data []byte, lastStart int64) {
	t.Helper()
	j, err := NewJournal(JournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j.Publish(testEvent(i))
	}
	if err := j.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// data ends in '\n'; the last record starts after the previous one.
	trimmed := bytes.TrimSuffix(data, []byte{'\n'})
	lastStart = int64(bytes.LastIndexByte(trimmed, '\n') + 1)
	return data, lastStart
}

// TestJournalTornTailEveryByteBoundary is the acceptance test for
// crash-consistency: truncate the journal at every byte boundary of
// its last record and prove reopening always succeeds, quarantines
// exactly the partial bytes, and preserves the dedup index for every
// complete line. This is the full sweep of states a crash mid-append
// can leave behind.
func TestJournalTornTailEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.jsonl")
	data, lastStart := seedJournal(t, seedPath, 3)

	for cut := lastStart; cut <= int64(len(data)); cut++ {
		path := filepath.Join(dir, "loops.jsonl")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(path + ".quarantine")

		reg := obs.NewRegistry()
		j, err := NewJournal(JournalOptions{Path: path, Metrics: reg})
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}

		torn := cut > lastStart && cut < int64(len(data)) // partial last record present
		q, qerr := os.ReadFile(path + ".quarantine")
		if torn {
			if qerr != nil {
				t.Fatalf("cut=%d: no quarantine sidecar: %v", cut, qerr)
			}
			want := append(append([]byte{}, data[lastStart:cut]...), '\n')
			if !bytes.Equal(q, want) {
				t.Fatalf("cut=%d: quarantine = %q, want %q", cut, q, want)
			}
			if got := reg.Counter(obs.LabelMetric("loopscope_serve_torn_repairs_total", "file", "journal")).Value(); got != 1 {
				t.Fatalf("cut=%d: torn repair counter = %d, want 1", cut, got)
			}
		} else if qerr == nil {
			t.Fatalf("cut=%d: unexpected quarantine sidecar %q", cut, q)
		}

		// The complete lines must still be deduplicated; the torn one
		// must not be (its bytes never fully landed, so it was never
		// durable and will be re-published by checkpoint resume).
		for i := 0; i < 2; i++ {
			j.Publish(testEvent(i))
		}
		j.Publish(testEvent(2))
		if err := j.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Whether the last record survived intact (deduped) or was torn
		// away (re-published), the journal must end with exactly one
		// copy of each of the three events.
		ids := journalIDs(t, path)
		if len(ids) != 3 {
			t.Fatalf("cut=%d: journal has %d events, want 3: %v", cut, len(ids), ids)
		}
		seen := map[string]int{}
		for _, id := range ids {
			seen[id]++
			if seen[id] > 1 {
				t.Fatalf("cut=%d: duplicate id %s in journal", cut, id)
			}
		}
		os.Remove(path)
	}
}

// TestTrailLogTornTailRepaired proves the trail journal gets the same
// torn-tail treatment as the event journal.
func TestTrailLogTornTailRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trails.jsonl")
	if err := os.WriteFile(path, []byte("{\"id\":\"a\"}\n{\"id\":\"b\",\"trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tl, err := newTrailLog(trailLogOptions{Path: path, Metrics: reg})
	if err != nil {
		t.Fatalf("reopen after torn trail write: %v", err)
	}
	tl.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"id\":\"a\"}\n"; string(data) != want {
		t.Fatalf("trail log after repair = %q, want %q", data, want)
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"id\":\"b\",\"trunc\n"; string(q) != want {
		t.Fatalf("quarantine = %q, want %q", q, want)
	}
	if got := reg.Counter(obs.LabelMetric("loopscope_serve_torn_repairs_total", "file", "trails")).Value(); got != 1 {
		t.Fatalf("torn repair counter = %d, want 1", got)
	}
}

// TestCorruptCheckpointQuarantinedEveryByteBoundary: a checkpoint
// truncated at any byte boundary (power loss beat the atomic rename,
// or the disk lied) must never stop the daemon from starting. Valid
// prefixes load; invalid ones are quarantined to .corrupt and the
// daemon starts fresh with checkpoint health degraded.
func TestCorruptCheckpointQuarantinedEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	cp := &Checkpoint{Sources: map[string]SourceCheckpoint{
		"src": {Kind: "tail", Path: "/tmp/x", Records: 42, Offset: 4096},
	}}
	if err := cp.Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "serve.ckpt")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		os.Remove(path + ".corrupt")

		d, err := New(Config{Detector: core.DefaultConfig(), CheckpointPath: path})
		if err != nil {
			t.Fatalf("cut=%d: New failed: %v", cut, err)
		}
		// Save appends a trailing newline after the JSON document, so
		// losing only that byte still leaves a complete checkpoint.
		valid := cut >= len(data)-1
		if _, qerr := os.Stat(path + ".corrupt"); valid {
			if qerr == nil {
				t.Fatalf("cut=%d: intact checkpoint was quarantined", cut)
			}
			if d.cp == nil || d.cp.Sources["src"].Records != 42 {
				t.Fatalf("cut=%d: intact checkpoint not loaded: %+v", cut, d.cp)
			}
		} else {
			if qerr != nil {
				t.Fatalf("cut=%d: corrupt checkpoint not quarantined: %v", cut, qerr)
			}
			if d.cp != nil {
				t.Fatalf("cut=%d: corrupt checkpoint partially loaded: %+v", cut, d.cp)
			}
			if got := d.health.Get("checkpoint"); got == resil.Healthy {
				t.Fatalf("cut=%d: checkpoint health not degraded after quarantine", cut)
			}
		}
		os.Remove(path)
	}
}
