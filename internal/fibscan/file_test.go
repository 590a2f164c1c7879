package fibscan

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"loopscope/internal/routing"
)

func sampleFile() *SnapshotFile {
	return &SnapshotFile{
		Version: FileVersion,
		Network: "test-net",
		Snapshots: []Snapshot{
			{
				TakenNs: 1_000_000,
				Routers: []RouterFIB{
					{
						Name:     "r1",
						Revision: 3,
						Routes: []Route{
							{Prefix: routing.MustParsePrefix("10.0.0.0/8"), NextHop: "r2"},
							{Prefix: routing.MustParsePrefix("10.1.0.0/16"), NextHop: "r3"},
						},
						Locals: []routing.Prefix{routing.MustParsePrefix("192.0.2.0/24")},
					},
					{Name: "r2", Revision: 1},
				},
			},
			{
				TakenNs: 2_000_000,
				Routers: []RouterFIB{{Name: "r1", Revision: 4}},
			},
		},
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", f, got)
	}
}

func TestSnapshotFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snaps.json")
	f := sampleFile()
	if err := WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("disk round trip mismatch")
	}
}

// badSnapshotFiles are inputs Decode must refuse; they also seed
// FuzzReadTimeline.
var badSnapshotFiles = map[string]string{
	"wrong version":   `{"version": 99, "snapshots": []}`,
	"unknown field":   `{"version": 1, "snapshots": [], "bogus": true}`,
	"out of order":    `{"version": 1, "snapshots": [{"takenNs": 5, "routers": []}, {"takenNs": 1, "routers": []}]}`,
	"malformed json":  `{"version": 1`,
	"bad prefix text": `{"version": 1, "snapshots": [{"takenNs": 1, "routers": [{"name": "a", "revision": 1, "routes": [{"prefix": "10.0.0.0/99", "nextHop": "b"}]}]}]}`,
	// The file ends where the document ends, and says a thing once.
	"trailing document":    `{"version":1,"snapshots":[]} garbage {"version":99}`,
	"trailing value":       `{"version":1,"snapshots":[]} {"version":1,"snapshots":[]}`,
	"snapshots twice":      `{"version":1,"snapshots":[{"takenNs":1,"routers":[]}],"snapshots":[]}`,
	"version twice":        `{"version":99,"version":1,"snapshots":[]}`,
	"routers twice":        `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a"}],"routers":[]}]}`,
	"case-folded key":      `{"VERSION":1,"snapshots":[]}`,
	"version after, wrong": `{"snapshots":[{"takenNs":1,"routers":[]}],"version":99}`,
	"version missing":      `{"snapshots":[]}`,
	"unknown in snapshot":  `{"version":1,"snapshots":[{"takenNs":1,"routers":[],"bogus":1}]}`,
	"unknown in router":    `{"version":1,"snapshots":[{"takenNs":1,"routers":[{"name":"a","bogus":1}]}]}`,
	"snapshot not object":  `{"version":1,"snapshots":[7]}`,
	"document not object":  `[]`,
	"cut inside snapshots": `{"version":1,"snapshots":[{"takenNs":1,"routers":[]}`,
	"cut after a key":      `{"version"`,
	"empty":                ``,
}

func TestSnapshotFileRejectsBadInput(t *testing.T) {
	cases := badSnapshotFiles
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted invalid input", name)
		}
	}

	// Errors carry the byte offset at which the reader gave up.
	for name, want := range map[string]string{
		"trailing document": "offset 29: data after the end of the document",
		"snapshots twice":   `offset 65: duplicate key "snapshots"`,
	} {
		if _, err := Decode(strings.NewReader(cases[name])); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to contain %q", name, err, want)
		}
	}

	// Order is checked as the file streams: snapshot 0 is handed out,
	// the misplaced snapshot 1 is refused on the spot, and the bytes
	// after it — here not even JSON — are never looked at.
	var seen []int64
	err := NewReader(strings.NewReader(`{"version":1,"snapshots":[{"takenNs":5,"routers":[]},{"takenNs":1,"routers":[]},{"takenNs":`)).
		Each(func(s *Snapshot) error { seen = append(seen, s.TakenNs); return nil })
	if len(seen) != 1 || seen[0] != 5 {
		t.Errorf("snapshots handed out before the misplaced one: %v", seen)
	}
	if err == nil || !strings.Contains(err.Error(), "snapshot out of order at index 1 (1 < 5)") {
		t.Errorf("out of order: error %v", err)
	}

	// A version that follows the snapshots is still checked, and still
	// accepted when right.
	if f, err := Decode(strings.NewReader(`{"snapshots":[null,{"takenNs":1,"routers":null}],"network":"late","version":1}`)); err != nil ||
		len(f.Snapshots) != 2 || f.Network != "late" || f.Version != FileVersion {
		t.Errorf("version after snapshots: %+v, %v", f, err)
	}
}

func TestEncodeDefaultsVersion(t *testing.T) {
	f := &SnapshotFile{Snapshots: []Snapshot{}}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if f.Version != FileVersion {
		t.Errorf("Version = %d after Encode", f.Version)
	}
}
