package agg

import (
	"encoding/json"
	"errors"
	"fmt"

	"loopscope/internal/durable"
	"loopscope/internal/obs"
)

// The observation journal is the aggregator's source of truth: one
// JSON line per accepted observation, appended before the observation
// mutates in-memory state. Restart = torn-tail repair + replay in
// order, which reproduces the exact fleet loop set (clustering is
// deterministic in observation order). The file is a durable.Log, the
// same mechanism as the daemon's journal: a write cut short by kill -9
// is quarantined on open, and replay skips (but counts and logs) lines
// that do not decode or are absurdly long, so one corrupt record costs
// one observation, not the journal.

// openJournal opens (repairing) the journal at a.cfg.Journal and
// replays every decodable line through a.apply, in file order. A
// missing file starts an empty journal.
func (a *Aggregator) openJournal() error {
	path := a.cfg.Journal
	j, torn, err := durable.OpenLog(path, durable.FsyncOff, nil, "")
	if err != nil {
		return fmt.Errorf("agg: opening journal %s: %w", path, err)
	}
	obs.NoteTornRepair(a.cfg.Metrics, a.log, "agg-journal", path, torn)
	replayed := 0
	skipped, err := durable.Replay(path, func(line []byte) error {
		var o Observation
		if err := json.Unmarshal(line, &o); err != nil {
			return err
		}
		if o.Vantage == "" || o.Event.ID == "" {
			return errors.New("observation without vantage or event id")
		}
		a.apply(o)
		replayed++
		return nil
	})
	if err != nil {
		j.Close()
		return fmt.Errorf("agg: replaying journal %s: %w", path, err)
	}
	if skipped > 0 {
		a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricJournalSkipped, "file", "agg-journal")).Add(int64(skipped))
		a.log.Warn("journal lines skipped during replay", "path", path, "skipped", skipped)
	}
	if replayed > 0 {
		a.log.Info("journal replayed", "path", path, "observations", replayed, "fleetLoops", a.loops)
	}
	a.journal = j
	return nil
}

// appendJournal writes one observation line. Called under the
// aggregator's lock, so lines never interleave.
func (a *Aggregator) appendJournal(o Observation) error {
	buf, err := json.Marshal(o)
	if err != nil {
		return err
	}
	return a.journal.Append(append(buf, '\n'))
}

// checkpointVersion is the cursor checkpoint's on-disk format version.
const checkpointVersion = 1

// checkpoint is the pull transport's resume state: per-vantage ring
// sequence cursors. Losing it is safe — pollers refetch from the top
// of each daemon's ring and the seen-set deduplicates — so decoding
// is tolerant where the serve tier's source checkpoint is strict, and
// a corrupt file is quarantined and polling starts from scratch.
type checkpoint struct {
	Version   int              `json:"version"`
	SavedAtNs int64            `json:"savedAtNs"`
	Cursors   map[string]int64 `json:"cursors"`
}

// saveCheckpoint writes the cursors atomically.
func saveCheckpoint(path string, cursors map[string]int64, nowNs int64) error {
	buf, err := json.MarshalIndent(checkpoint{
		Version:   checkpointVersion,
		SavedAtNs: nowNs,
		Cursors:   cursors,
	}, "", "  ")
	if err != nil {
		return err
	}
	return durable.Save(path, append(buf, '\n'))
}

// loadCheckpoint restores the cursors. A missing file restores none,
// and neither does a corrupt one: it is moved aside and logged.
func (a *Aggregator) loadCheckpoint() {
	var cp checkpoint
	quarantined, err := durable.Load(a.cfg.Checkpoint, func(data []byte) error {
		if err := json.Unmarshal(data, &cp); err != nil {
			return err
		}
		if cp.Version != checkpointVersion {
			return fmt.Errorf("unsupported cursor checkpoint version %d", cp.Version)
		}
		return nil
	})
	if err != nil {
		a.log.Warn("unusable cursor checkpoint; polling from scratch",
			"path", a.cfg.Checkpoint, "quarantined", quarantined, "err", err)
		return
	}
	for name, seq := range cp.Cursors {
		a.vantage(name).cursor = seq
	}
}
