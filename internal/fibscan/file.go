package fibscan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FileVersion is the current snapshot file format version.
const FileVersion = 1

// SnapshotFile is the on-disk snapshot format shared by the simulator
// (backbonesim -fib-snapshots) and the cmd/fibscan CLI: one JSON
// document holding a timeline of FIB captures in ascending time order.
type SnapshotFile struct {
	Version int `json:"version"`
	// Network labels the captured network (scenario name).
	Network   string     `json:"network,omitempty"`
	Snapshots []Snapshot `json:"snapshots"`
}

// Validate checks the structural invariants a reader relies on.
func (f *SnapshotFile) Validate() error {
	if f.Version != FileVersion {
		return fmt.Errorf("fibscan: unsupported snapshot file version %d (want %d)", f.Version, FileVersion)
	}
	for i := 1; i < len(f.Snapshots); i++ {
		if f.Snapshots[i].TakenNs < f.Snapshots[i-1].TakenNs {
			return fmt.Errorf("fibscan: snapshots out of order at index %d (%d < %d)",
				i, f.Snapshots[i].TakenNs, f.Snapshots[i-1].TakenNs)
		}
	}
	return nil
}

// Encode writes the file as indented JSON.
func (f *SnapshotFile) Encode(w io.Writer) error {
	if f.Version == 0 {
		f.Version = FileVersion
	}
	if err := f.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Decode reads and validates a snapshot file: what a Reader yields,
// collected. Routers whose bytes repeat from one snapshot to the next
// share their tables (see Reader), so the result is read-only.
func Decode(r io.Reader) (*SnapshotFile, error) {
	rd := NewReader(r)
	err := rd.Each(func(s *Snapshot) error {
		rd.file.Snapshots = append(rd.file.Snapshots, *s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rd.file, nil
}

// WriteFile writes the snapshot file to path.
func WriteFile(path string, f *SnapshotFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadFile reads and validates the snapshot file at path.
func ReadFile(path string) (*SnapshotFile, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Decode(in)
}
