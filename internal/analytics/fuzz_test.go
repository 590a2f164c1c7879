package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzDecodeSnapshot: whatever bytes sit in the analytics snapshot file,
// decodeSnapshot rejects them or accepts a state that answers queries
// without panicking, and the image Snapshot writes of an accepted state
// decodes again to the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add(parent[:len(parent)/2])
	f.Add([]byte(`{"version":1,"sources":{}}`))
	for _, img := range badSnapshots {
		f.Add([]byte(img))
	}
	f.Add([]byte(`{"version":1,"sources":{"s":{"tiers":[[],[],[]],"all":{"duration":{"n":0,"sum":0,"min":0,"max":0},"ttlDelta":{"counts":{"3":2},"n":2},"streams":{"n":0},"replicas":{"n":0,"sum":0,"min":0,"max":0},"escapeDelay":{"n":0,"sum":0,"min":0,"max":0},"loops":2}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCollector(Options{})
		if c.decodeSnapshot(data) != nil {
			return
		}
		for _, q := range []Query{{}, {Window: time.Hour}} {
			if _, err := c.Query(q); err != nil {
				t.Fatalf("query %+v on an accepted state: %v", q, err)
			}
		}
		image, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		again := NewCollector(Options{})
		if err := again.decodeSnapshot(image); err != nil {
			t.Fatalf("re-encoded image rejected: %v\n%s", err, image)
		}
		if image2, _ := again.Snapshot(); !bytes.Equal(image, image2) {
			t.Fatalf("re-encoded image does not round-trip:\n%s\n%s", image, image2)
		}
	})
}
