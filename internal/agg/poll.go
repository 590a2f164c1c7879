package agg

import (
	"context"
	"time"

	"loopscope/internal/api"
	"loopscope/pkg/loopscope"
)

// The pull transport: each PollTarget names one loopscoped daemon
// whose /api/v1/loops the aggregator walks with cursor pagination.
// Pull complements push — a daemon behind a NAT can webhook out, a
// daemon the aggregator can reach gets polled, and a fleet can run
// both for the same daemon because the seen-set makes redelivery
// free. The cursor (newest ring sequence already ingested) is
// checkpointed; losing it only causes refetches.

// PollTarget is one daemon to poll. Name keys the cursor checkpoint
// and is the fallback vantage attribution; the daemon's own vantage
// identity (event or envelope meta) wins when present.
type PollTarget struct {
	Name string
	URL  string
}

// PollLoop polls target every interval until ctx is done. The first
// round runs immediately. Once a round discovers the daemon's own
// vantage identity, it supersedes target.Name for cursor and health
// bookkeeping, so the vantage table shows one row per daemon no
// matter what the poll target was labelled.
func (a *Aggregator) PollLoop(ctx context.Context, target PollTarget, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	client := loopscope.New(target.URL)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if name, err := a.PollOnce(ctx, client, target); err != nil && ctx.Err() == nil {
			a.log.Warn("poll round failed", "target", name, "url", target.URL, "err", err)
		} else if name != target.Name {
			target.Name = name
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// PollOnce performs one poll round: walk pages newest-to-oldest until
// reaching the cursor, then ingest the new events oldest-first, so the
// journal keeps each vantage's events in emission order (the fleet
// loops are the same in any order) and the cursor only ever advances
// past ingested events. It returns
// the vantage name the round resolved to (the daemon's own identity
// when discovered, target.Name otherwise); the outcome feeds that
// vantage's health/lag standing.
func (a *Aggregator) PollOnce(ctx context.Context, client *loopscope.Client, target PollTarget) (string, error) {
	name, err := a.pollOnce(ctx, client, target)
	a.notePollResult(name, err)
	return name, err
}

func (a *Aggregator) pollOnce(ctx context.Context, client *loopscope.Client, target PollTarget) (string, error) {
	last := a.Cursor(target.Name)
	var pending []loopscope.LoopEvent
	vantage := ""
	cursor := int64(0)
	for {
		// The largest page the daemon serves, to minimize round trips
		// on catch-up.
		page, err := client.Loops(ctx, loopscope.LoopsQuery{Limit: api.MaxLimit, Cursor: cursor})
		if err != nil {
			return target.Name, err
		}
		if page.Vantage != "" {
			vantage = page.Vantage
		}
		if cursor == 0 && page.Total < last {
			// The daemon's all-time count fell below our cursor: it
			// restarted with a fresh ring and its sequence numbers
			// started over. Refetch everything; dedup absorbs overlap.
			last = 0
		}
		caughtUp := false
		for _, le := range page.Events {
			if le.Seq <= last {
				caughtUp = true
				break
			}
			pending = append(pending, le)
		}
		if caughtUp || page.NextCursor == 0 {
			break
		}
		cursor = page.NextCursor
	}
	name := vantage
	if name == "" {
		name = target.Name
	}
	newest := last
	for i := len(pending) - 1; i >= 0; i-- {
		le := pending[i]
		v := le.Event.Vantage
		if v == "" {
			v = name
		}
		if _, err := a.Ingest(Observation{Vantage: v, Transport: TransportPull, Event: le.Event}); err != nil {
			return name, err
		}
		if le.Seq > newest {
			newest = le.Seq
		}
	}
	a.SetCursor(name, newest)
	return name, nil
}
