package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validCheckpointJSON is a well-formed checkpoint image used as the
// positive baseline and as the fuzz seed.
const validCheckpointJSON = `{
  "version": 1,
  "savedAtNs": 1700000000000000000,
  "host": "capture1",
  "sources": {
    "backbone1": {
      "kind": "tail",
      "path": "/captures/backbone1.lspt",
      "fileId": "2049:131842",
      "records": 120000,
      "offset": 9480232,
      "emitted": 17,
      "highWaterNs": 83000000000
    }
  }
}`

func TestDecodeCheckpointValid(t *testing.T) {
	cp, err := DecodeCheckpoint([]byte(validCheckpointJSON))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cp.Sources["backbone1"]
	if !ok {
		t.Fatal("source missing")
	}
	if s.Records != 120000 || s.Offset != 9480232 || s.Emitted != 17 {
		t.Fatalf("bad positions: %+v", s)
	}
}

func TestDecodeCheckpointRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           ``,
		"not json":        `}{`,
		"wrong version":   `{"version": 2, "savedAtNs": 1, "sources": {}}`,
		"missing version": `{"savedAtNs": 1, "sources": {}}`,
		"unknown field":   `{"version": 1, "savedAtNs": 1, "sources": {}, "extra": true}`,
		"trailing":        `{"version": 1, "savedAtNs": 1, "sources": {}} garbage`,
		"second document": `{"version": 1, "savedAtNs": 1, "sources": {}}{"version": 1}`,
		"negative time":   `{"version": 1, "savedAtNs": -5, "sources": {}}`,
		"bad kind":        `{"version": 1, "savedAtNs": 1, "sources": {"x": {"kind": "ftp", "records": 0, "offset": 0, "emitted": 0, "highWaterNs": 0}}}`,
		"empty name":      `{"version": 1, "savedAtNs": 1, "sources": {"": {"kind": "tail", "records": 0, "offset": 0, "emitted": 0, "highWaterNs": 0}}}`,
		"negative records": `{"version": 1, "savedAtNs": 1,
			"sources": {"x": {"kind": "tail", "records": -1, "offset": 0, "emitted": 0, "highWaterNs": 0}}}`,
		"negative emitted": `{"version": 1, "savedAtNs": 1,
			"sources": {"x": {"kind": "tail", "records": 1, "offset": 30, "emitted": -2, "highWaterNs": 0}}}`,
		"records without offset": `{"version": 1, "savedAtNs": 1,
			"sources": {"x": {"kind": "tail", "records": 7, "offset": 0, "emitted": 0, "highWaterNs": 0}}}`,
		"truncated": validCheckpointJSON[:len(validCheckpointJSON)/2],
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeCheckpointFeedAtOffsetZero(t *testing.T) {
	// Feed positions have no byte offset; records at offset 0 is their
	// normal shape, not corruption.
	data := `{"version": 1, "savedAtNs": 1,
		"sources": {"f": {"kind": "feed", "records": 42, "offset": 0, "emitted": 3, "highWaterNs": 9}}}`
	if _, err := DecodeCheckpoint([]byte(data)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")

	// Missing file: start fresh, not an error.
	cp, _, err := LoadCheckpoint(path)
	if err != nil || cp != nil {
		t.Fatalf("missing checkpoint: cp=%v err=%v", cp, err)
	}

	want := &Checkpoint{Sources: map[string]SourceCheckpoint{
		"s1": {Kind: "tail", Path: "/a", FileID: "1:2", Records: 10, Offset: 500, Emitted: 2, HighWaterNs: 77},
	}}
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != checkpointVersion || got.SavedAtNs <= 0 {
		t.Fatalf("bad header: %+v", got)
	}
	if got.Sources["s1"] != want.Sources["s1"] {
		t.Fatalf("round trip: %+v != %+v", got.Sources["s1"], want.Sources["s1"])
	}

	// No temp litter left behind by Save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".checkpoint-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// FuzzCheckpointDecode is the no-garbage-resume guarantee: whatever
// bytes end up in the checkpoint file — bit rot, torn writes, a
// different tool's JSON — the decoder either rejects them or yields a
// checkpoint whose every field passed validation. It must never panic
// and never accept out-of-range positions.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte(validCheckpointJSON))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 1, "savedAtNs": 0, "sources": {}}`))
	f.Add([]byte(`{"version": 1, "savedAtNs": 1, "sources": {"x": {"kind": "feed", "records": 1, "offset": 0, "emitted": 0, "highWaterNs": 0}}}`))
	f.Add([]byte(validCheckpointJSON[:60]))
	f.Add([]byte(validCheckpointJSON + "\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			if cp != nil {
				t.Fatal("non-nil checkpoint alongside error")
			}
			return
		}
		if cp.Version != checkpointVersion {
			t.Fatalf("accepted version %d", cp.Version)
		}
		if cp.SavedAtNs < 0 {
			t.Fatal("accepted negative save time")
		}
		for name, s := range cp.Sources {
			if name == "" {
				t.Fatal("accepted empty source name")
			}
			if !validKinds[s.Kind] {
				t.Fatalf("accepted kind %q", s.Kind)
			}
			if s.Records < 0 || s.Offset < 0 || s.Emitted < 0 || s.HighWaterNs < 0 || s.TimeBaseNs < 0 {
				t.Fatalf("accepted negative position: %+v", s)
			}
		}
		// Accepted inputs must round-trip through the canonical
		// encoding and decode to the same value.
		out, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		cp2, err := DecodeCheckpoint(out)
		if err != nil {
			t.Fatalf("canonical re-encode rejected: %v", err)
		}
		if len(cp2.Sources) != len(cp.Sources) {
			t.Fatal("round trip changed source count")
		}
	})
}
