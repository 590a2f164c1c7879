// Command loopscope-agg is the fleet aggregation daemon: it ingests
// loop events from many loopscoped instances — pushed at its
// /api/v1/ingest endpoint (point each daemon's -webhook there) and/or
// pulled from each daemon's /api/v1/loops with cursor pagination
// (-poll, repeatable) — deduplicates observations of the same
// underlying routing loop seen from different vantages, and serves
// the correlated fleet view:
//
//	GET /api/v1/fleet/loops     deduplicated loops with per-vantage evidence
//	GET /api/v1/fleet/vantages  per-daemon standing (transports, lag, cursor, clock skew)
//	GET /api/v1/fleet/stats     fleet-wide loop statistics (mergeable sketches)
//	GET /api/v1/fleet/latency   per-(pipeline segment, vantage) provenance latency table
//	GET /api/v1/health          liveness and fleet totals
//	GET /api/v1/statusz         human status page: vantage health, cursor lag,
//	                            pipeline-stage latency breakdowns with exemplar links
//
// A fleet loop is a connected component of observations: two join
// when they share a stream identity (the same packet, seen on two
// links of the loop's cycle), when one is a drain-truncated emission
// of the other, or — for events from daemons that predate identities —
// when they share a /24, a TTL delta and a window within 5 s. The loop
// set is the same whatever order the observations arrive in.
//
// Accepted observations are journaled (append-only JSONL, torn tails
// quarantined) before they mutate state, so kill -9 at any point
// restarts into the same fleet loop set — and, because provenance
// close-out reads only journaled stamps, the same pipeline-latency
// sketches byte for byte; pull cursors are checkpointed atomically
// and are safe to lose (refetches dedup).
//
// Usage:
//
//	loopscope-agg [flags]
//
// Examples:
//
//	loopscope-agg -http :9191 -journal fleet.jsonl
//	loopscope-agg -http :9191 -poll bb1=http://127.0.0.1:9090 -poll bb2=http://127.0.0.1:9091
//	loopscoped -tail bb1.lspt -vantage bb1 -webhook http://127.0.0.1:9191/api/v1/ingest
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"loopscope/internal/agg"
	"loopscope/internal/obs"
	"loopscope/internal/resil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body. Exit codes: 0 clean (including -h), 2
// for usage and configuration errors (nothing started), 1 for runtime
// failure.
func run(args []string, stdout, stderr io.Writer) int {
	_ = stdout
	fs := flag.NewFlagSet("loopscope-agg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var polls []string
	fs.Func("poll", "pull loop events from a loopscoped daemon: [name=]baseURL (repeatable)", func(v string) error {
		polls = append(polls, v)
		return nil
	})
	var (
		httpAddr     = fs.String("http", "", "serve the fleet API (plus /metrics, /debug/pprof); a bare :port binds loopback only")
		journalPath  = fs.String("journal", "", "append accepted observations to this JSONL file (the restart source of truth)")
		cpPath       = fs.String("checkpoint", "", "persist pull cursors atomically here")
		cpInterval   = fs.Duration("checkpoint-interval", time.Second, "cursor checkpoint period")
		pollInterval = fs.Duration("poll-interval", 2*time.Second, "poll period per -poll target")
	)
	newLogger := obs.BindLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: loopscope-agg [flags]   (transports come from -poll and/or pushed webhooks)")
		fs.PrintDefaults()
		return 2
	}
	if *httpAddr == "" && len(polls) == 0 {
		fmt.Fprintln(stderr, "loopscope-agg: nothing to do; give -http (push ingest + API) and/or -poll targets")
		return 2
	}

	reg := obs.NewRegistry()
	logger, err := newLogger(obs.LogOptions{Prefix: "loopscope-agg", Metrics: reg, W: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "loopscope-agg: %v\n", err)
		return 2
	}

	health := resil.NewHealthSet(func(component string, h resil.Health) {
		reg.Gauge(obs.LabelMetric(obs.MetricComponentHealth, "component", component)).Set(int64(h))
	})
	a, err := agg.New(agg.Config{
		Journal:    *journalPath,
		Checkpoint: *cpPath,
		Metrics:    reg,
		Health:     health,
		Logger:     logger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "loopscope-agg: %v\n", err)
		return 2
	}

	var srv *obs.Server
	if *httpAddr != "" {
		if srv, err = obs.StartHandler(*httpAddr, a.Handler()); err != nil {
			fmt.Fprintf(stderr, "loopscope-agg: %v\n", err)
			return 2
		}
		logger.Info("serving fleet API", "url", "http://"+srv.Addr()+"/",
			"endpoints", "api/v1/{health,ingest,fleet/loops,fleet/vantages,fleet/stats,fleet/latency,statusz} metrics")
	}

	// SIGTERM/SIGINT trigger one graceful stop; a second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	var wg sync.WaitGroup
	for _, spec := range polls {
		name, url := splitSpec(spec)
		logger.Info("polling daemon", "target", name, "url", url, "interval", *pollInterval)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.PollLoop(ctx, agg.PollTarget{Name: name, URL: url}, *pollInterval)
		}()
	}
	if *cpPath != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(*cpInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := a.SaveCheckpoint(); err != nil {
						logger.Warn("cursor checkpoint failed", "err", err)
					}
				}
			}
		}()
	}

	<-ctx.Done()
	wg.Wait()
	if srv != nil {
		srv.Close()
	}
	if err := a.SaveCheckpoint(); err != nil {
		logger.Warn("final cursor checkpoint failed", "err", err)
	}
	if err := a.Close(); err != nil {
		logger.Error("closing journal: " + err.Error())
		return 1
	}
	logger.Info("stopped")
	return 0
}

// splitSpec parses "name=baseURL" poll specs; a bare URL derives its
// name from the host part (stable enough to key cursor checkpoints
// until the daemon's own vantage identity is discovered).
func splitSpec(spec string) (name, url string) {
	if n, v, ok := strings.Cut(spec, "="); ok && n != "" && !strings.Contains(n, "/") {
		return n, v
	}
	name = strings.TrimPrefix(strings.TrimPrefix(spec, "https://"), "http://")
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	return name, spec
}
