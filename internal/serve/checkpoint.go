package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"loopscope/internal/durable"
)

// checkpointVersion is the on-disk format version this build writes
// and the only one it accepts.
const checkpointVersion = 1

// Checkpoint is the daemon's periodically persisted position: for
// every source, how far into the stream the detector has advanced, how
// many final events were already delivered and where a restart must
// re-read from to rebuild the detector's state. It is written
// atomically (durable.Save), so a crash leaves either the old or the
// new checkpoint, never a torn one.
//
// The invariant that makes resume exact: a source entry is only ever
// captured at a moment when its first Emitted final events were already
// durably published, so a restart that re-feeds a fresh detector from
// Restart up to the position in silence, then publishes on numbering
// from Emitted, delivers each final event at least once overall and —
// behind the journal's ID dedup — exactly once.
type Checkpoint struct {
	Version   int    `json:"version"`
	SavedAtNs int64  `json:"savedAtNs"`
	Host      string `json:"host,omitempty"`

	Sources map[string]SourceCheckpoint `json:"sources"`
}

// SourceCheckpoint is one source's resume position.
type SourceCheckpoint struct {
	// Kind is the source type: "tail", "dir" or "feed".
	Kind string `json:"kind"`
	// Path is the tailed file or watched directory.
	Path string `json:"path,omitempty"`
	// File is the segment currently being consumed (dir sources).
	File string `json:"file,omitempty"`
	// FileID identifies the tailed file (dev:inode) so a resume can
	// tell whether the path still names the file this entry describes.
	FileID string `json:"fileId,omitempty"`
	// Records is the number of records fully consumed from the
	// current file.
	Records int64 `json:"records"`
	// Offset is the byte offset those records end at (sanity check
	// during replay).
	Offset int64 `json:"offset"`
	// Emitted is the number of final loop events the source's current
	// session delivered up to the position: the Seq of the next one. A
	// resume numbers on from it.
	Emitted int `json:"emitted"`
	// HighWaterNs is the detector's position on the trace clock.
	HighWaterNs int64 `json:"highWaterNs"`
	// TimeBaseNs is the rebasing offset applied to the current
	// segment's record times (dir sources stitch segments into one
	// monotonic clock).
	TimeBaseNs int64 `json:"timeBaseNs,omitempty"`
	// Restart is where a resume re-reads from: the earliest record any
	// of the detector's retained state derives from
	// (core.Session.RestartPoint), at or before the position, possibly in
	// an earlier segment. Nil in checkpoints written before it existed,
	// which resume fresh. A feed's bytes are gone with its connection,
	// so a feed never resumes from its restart point.
	Restart *restartPoint `json:"restart,omitempty"`
}

// restartPoint is a record a resume can re-read from: the segment that
// holds it (dir sources), how many records of it come before, the byte
// offset it starts at and the segment's time base.
type restartPoint struct {
	File       string `json:"file,omitempty"`
	Records    int64  `json:"records"`
	Offset     int64  `json:"offset"`
	TimeBaseNs int64  `json:"timeBaseNs,omitempty"`
	// Shed says the memory governor shed state since this record, so
	// re-reading from it rebuilds the detector only approximately.
	Shed bool `json:"shed,omitempty"`
}

// validKinds is the closed set of source kinds a checkpoint may name.
var validKinds = map[string]bool{"tail": true, "dir": true, "feed": true}

// decodeCheckpoint parses and validates a checkpoint image. It is
// deliberately strict — unknown fields, wrong version, negative
// positions, unknown source kinds and trailing garbage are all
// rejected — because resuming from a corrupt checkpoint would silently
// re-emit or skip loop events. A rejected checkpoint makes the daemon
// start fresh, which is always safe (the journal still deduplicates).
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	// Reject trailing garbage after the JSON document.
	if dec.More() {
		return nil, errors.New("serve: checkpoint: trailing data after document")
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("serve: checkpoint: unsupported version %d", c.Version)
	}
	if c.SavedAtNs < 0 {
		return nil, errors.New("serve: checkpoint: negative save time")
	}
	for name, s := range c.Sources {
		if name == "" {
			return nil, errors.New("serve: checkpoint: empty source name")
		}
		if !validKinds[s.Kind] {
			return nil, fmt.Errorf("serve: checkpoint: source %q has unknown kind %q", name, s.Kind)
		}
		r := cmp.Or(s.Restart, &restartPoint{})
		if s.Records < 0 || s.Offset < 0 || s.Emitted < 0 || s.HighWaterNs < 0 || s.TimeBaseNs < 0 ||
			r.Records < 0 || r.Offset < 0 || r.TimeBaseNs < 0 {
			return nil, fmt.Errorf("serve: checkpoint: source %q has negative position", name)
		}
		if s.Records > 0 && s.Offset == 0 && s.Kind != "feed" {
			return nil, fmt.Errorf("serve: checkpoint: source %q consumed %d records at offset 0", name, s.Records)
		}
	}
	return &c, nil
}

// loadCheckpoint reads and validates the checkpoint at path. A missing
// file is not an error: it returns (nil, false, nil), meaning "start
// fresh". A corrupt one is quarantined by durable.Load: cp is nil,
// quarantined is true and err says why it was rejected.
func loadCheckpoint(path string) (cp *Checkpoint, quarantined bool, err error) {
	quarantined, err = durable.Load(path, func(data []byte) (derr error) {
		cp, derr = decodeCheckpoint(data)
		return derr
	})
	return cp, quarantined, err
}

// Save writes the checkpoint atomically (durable.Save).
func (c *Checkpoint) Save(path string) error {
	c.Version = checkpointVersion
	c.SavedAtNs = time.Now().UnixNano()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return durable.Save(path, append(data, '\n'))
}
