package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"loopscope/pkg/loopscope"
)

// Fixed fleet parameters. exitIdle is subtracted from the daemon's
// wall time: it is a constant wait after the last record, not work.
const (
	fleetVantage  = "bench"
	fleetPoll     = 25 * time.Millisecond
	fleetExitIdle = 250 * time.Millisecond
)

// fleetStats is what one aggregator + daemon run produced.
type fleetStats struct {
	Daemon procStats
	// AggCPU is the aggregator's user+system time over its lifetime.
	AggCPU time.Duration
	// Journal is the daemon's journal, reduced to loop rows.
	Journal   []loopRow
	Truncated int
	// Observations and Duplicates are the aggregator's counts for the
	// run's vantage.
	Observations, Duplicates int64
	// P50Ms and P99Ms are pipeline-segment latencies from the
	// aggregator's provenance sketches (GET /api/v1/fleet/latency).
	P50Ms, P99Ms map[string]float64
}

var aggURLRE = regexp.MustCompile(`serving fleet API url=(http://\S+)`)

// fleetRun starts one loopscope-agg, runs one loopscoped over the
// capture until it exits idle, reads the aggregator's view, and stops
// the aggregator. dir receives the journals and logs and is wiped
// first so no checkpoint or journal carries over between repetitions.
func fleetRun(ctx context.Context, e env, dir, capture string, mergeWindow time.Duration) (*fleetStats, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	aggLog := filepath.Join(dir, "agg.log")
	logf, err := os.Create(aggLog)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	agg := exec.Command(e.bin("loopscope-agg"), "-http", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "agg.jsonl"))
	agg.Stderr = logf
	if err := agg.Start(); err != nil {
		return nil, err
	}
	// Whatever happens below, the aggregator is stopped and reaped.
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		agg.Process.Signal(syscall.SIGTERM)
		return agg.Wait()
	}
	defer stop()

	url, err := waitForURL(ctx, aggLog)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal.jsonl")
	st := &fleetStats{P50Ms: map[string]float64{}, P99Ms: map[string]float64{}}
	st.Daemon, err = runTimed(ctx, e.bin("loopscoped"),
		"-tail", "trace="+capture, "-vantage", fleetVantage,
		"-journal", journal, "-checkpoint", filepath.Join(dir, "checkpoint.json"),
		"-webhook", url+"api/v1/ingest",
		"-merge-window", mergeWindow.String(),
		"-poll", fleetPoll.String(), "-exit-idle", fleetExitIdle.String())
	if err != nil {
		return nil, err
	}
	if st.Journal, st.Truncated, err = parseJournal(journal); err != nil {
		return nil, err
	}

	// The daemon drains its webhook queue before exiting, so the
	// aggregator has seen everything it will ever see.
	client := loopscope.New(url)
	vantages, err := client.FleetVantages(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet vantages: %w", err)
	}
	for _, v := range vantages {
		if v.Name == fleetVantage {
			st.Observations, st.Duplicates = v.Observations, v.Duplicates
		}
	}
	if st.Observations > 0 {
		lat, err := client.FleetLatency(ctx, loopscope.FleetLatencyQuery{Vantage: fleetVantage})
		if err != nil {
			return nil, fmt.Errorf("fleet latency: %w", err)
		}
		for _, seg := range lat.Segments {
			st.P50Ms[seg.Segment] = float64(seg.Quantiles["p50"]) / 1e6
			st.P99Ms[seg.Segment] = float64(seg.Quantiles["p99"]) / 1e6
		}
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("loopscope-agg: %v", err)
	}
	st.AggCPU = agg.ProcessState.UserTime() + agg.ProcessState.SystemTime()
	return st, nil
}

// waitForURL polls the aggregator's log for its listener announcement.
func waitForURL(ctx context.Context, logPath string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		data, err := os.ReadFile(logPath)
		if err != nil {
			return "", err
		}
		if m := aggURLRE.FindSubmatch(data); m != nil {
			return string(m[1]), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	data, _ := os.ReadFile(logPath)
	return "", fmt.Errorf("loopscope-agg never announced its listener:\n%s", tail(data, 1024))
}

// checkFleet applies the fleet correctness gates to one run.
func checkFleet(o *ops, st *fleetStats, ref []loopRow) {
	o.check(st.Truncated == 0, "%d truncated events in the journal", st.Truncated)
	o.check(digest(st.Journal, false) == digest(ref, false),
		"journal loop set (%d) differs from loopdetect's (%d)", len(st.Journal), len(ref))
	lost := len(st.Journal) - int(st.Observations)
	if lost < 0 {
		lost = -lost
	}
	o.count(len(st.Journal), lost, "journaled events never clustered (webhook drops)")
	o.check(st.Duplicates == 0, "%d duplicate deliveries", st.Duplicates)
}
