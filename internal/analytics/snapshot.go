package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"

	"loopscope/internal/durable"
)

// snapshotVersion is the on-disk analytics snapshot format version.
const snapshotVersion = 1

// snapshot is the serialized Collector image. Like the daemon
// checkpoint it is a single JSON document written atomically; unlike
// the journal it is state, not a log — a lost snapshot loses window
// history but never correctness, because the seen-ID ring rides along
// and keeps replayed events from double counting.
type snapshot struct {
	Version  int                       `json:"version"`
	Sources  map[string]*sourceWindows `json:"sources"`
	Seen     []string                  `json:"seen,omitempty"`
	Ingested uint64                    `json:"ingested"`
	Deduped  uint64                    `json:"deduped"`
}

// Snapshot serializes the Collector's full state.
func (c *Collector) Snapshot() ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("analytics: nil collector")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := snapshot{
		Version:  snapshotVersion,
		Sources:  c.sources,
		Seen:     c.seenFIFO,
		Ingested: c.ingested,
		Deduped:  c.deduped,
	}
	return json.Marshal(&snap)
}

// DecodeSnapshot strictly parses and validates a snapshot image,
// replacing the Collector's state. Unknown fields, version skew, and
// structurally impossible sketches are all rejected — same discipline
// as the daemon checkpoint decoder, so a torn or tampered file can
// never half-load.
func (c *Collector) DecodeSnapshot(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("analytics: decode snapshot: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("analytics: trailing data after snapshot")
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("analytics: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if len(snap.Seen) > seenCap {
		return fmt.Errorf("analytics: snapshot seen ring holds %d ids, cap %d", len(snap.Seen), seenCap)
	}
	seen := make(map[string]struct{}, len(snap.Seen))
	for _, id := range snap.Seen {
		if id == "" {
			return fmt.Errorf("analytics: snapshot seen ring holds empty id")
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("analytics: snapshot seen ring holds duplicate id %q", id)
		}
		seen[id] = struct{}{}
	}
	for name, sw := range snap.Sources {
		if name == "" || sw == nil {
			return fmt.Errorf("analytics: snapshot has empty source entry")
		}
		if len(sw.Tiers) != len(tiers) {
			return fmt.Errorf("analytics: snapshot source %q has %d tiers, want %d", name, len(sw.Tiers), len(tiers))
		}
		for ti, segs := range sw.Tiers {
			if len(segs) > tiers[ti].keep {
				return fmt.Errorf("analytics: snapshot source %q tier %d holds %d segments, cap %d", name, ti, len(segs), tiers[ti].keep)
			}
			last := int64(-1 << 62)
			for _, seg := range segs {
				if seg.MS == nil {
					return fmt.Errorf("analytics: snapshot source %q has segment without metrics", name)
				}
				if seg.StartUnix <= last {
					return fmt.Errorf("analytics: snapshot source %q tier %d segments out of order", name, ti)
				}
				last = seg.StartUnix
				if err := seg.MS.validate(); err != nil {
					return fmt.Errorf("analytics: snapshot source %q: %w", name, err)
				}
			}
		}
		if sw.All == nil {
			return fmt.Errorf("analytics: snapshot source %q missing cumulative view", name)
		}
		if err := sw.All.validate(); err != nil {
			return fmt.Errorf("analytics: snapshot source %q: %w", name, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if snap.Sources == nil {
		snap.Sources = make(map[string]*sourceWindows)
	}
	c.sources = snap.Sources
	c.seen = seen
	c.seenFIFO = snap.Seen
	c.ingested = snap.Ingested
	c.deduped = snap.Deduped
	return nil
}

// Save writes the snapshot atomically (durable.Save) — the same crash
// discipline as the daemon checkpoint, so kill -9 leaves either the old
// image or the new one, never a torn hybrid.
func (c *Collector) Save(path string) error {
	data, err := c.Snapshot()
	if err != nil {
		return err
	}
	if err := durable.Save(path, data); err != nil {
		return fmt.Errorf("analytics: saving snapshot: %w", err)
	}
	return nil
}

// Load restores the Collector from path. A missing file is a clean
// first start (nil error, empty state untouched). A corrupt file is
// quarantined by durable.Load and reported so the caller can log and
// degrade health — analytics restart empty rather than refusing to
// start the daemon.
func (c *Collector) Load(path string) (quarantined bool, err error) {
	return durable.Load(path, c.DecodeSnapshot)
}
