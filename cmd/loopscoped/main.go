// Command loopscoped is the continuous-operation daemon: it follows
// live trace sources — growing capture files, rotated-capture
// directories, native trace streams over TCP or unix sockets — runs
// the bounded-memory loop detector over each, and publishes finalized
// loop events to an append-only JSONL journal, an optional webhook,
// and an HTTP API.
//
// A periodic checkpoint (-checkpoint) records every source's position;
// after a crash or restart the daemon resumes from it without
// re-emitting journal entries. SIGTERM and SIGINT shut down
// gracefully: detectors are drained (partial loops journaled marked
// "truncated"), a final checkpoint is written, and sinks are flushed
// within -drain-timeout.
//
// A flight recorder (on by default, -flight-events 0 disables) keeps a
// bounded ring of per-decision detector events; each emitted loop's
// decision trail is sealed under its event ID and served at
// /api/v1/trace/{id}, linked from the /api/v1/statusz page, and
// optionally appended to a JSONL file (-trail-journal).
//
// The daemon protects itself under failure and overload: torn journal
// and checkpoint tails left by crashes are quarantined on startup, a
// memory governor (-max-streams) bounds detector state under IPID
// collision storms, the webhook sink sits behind a circuit breaker,
// and per-component health is reported on /api/v1/health and
// /api/v1/statusz.
//
// Usage:
//
//	loopscoped [flags]
//
// Examples:
//
//	loopscoped -tail /captures/backbone1.lspt -journal loops.jsonl
//	loopscoped -tail bb1=/cap/bb1.lspt -tail bb2=/cap/bb2.lspt -checkpoint cp.json
//	loopscoped -watch /captures/rotated/ -http :8080 -webhook http://noc/hook
//	loopscoped -listen tcp:127.0.0.1:4444 -journal loops.jsonl -log-format json
//	tracegen -live-every 500 grow.lspt & loopscoped -tail grow.lspt -exit-idle 5s
//
// Source flags repeat; each takes "name=spec" or a bare spec (the name
// is then derived). Every event carries its source name, which is also
// the checkpoint key — keep names stable across restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/serve"
)

// journalMaxBytes is the size past which the journal rotates.
const journalMaxBytes = 64 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// appendTo is a repeatable string flag's fs.Func: each use appends to
// dst.
func appendTo(dst *[]string) func(string) error {
	return func(v string) error {
		*dst = append(*dst, v)
		return nil
	}
}

// run is main's testable body: parse args, build the daemon, run it.
// Exit codes: 0 clean (including -h), 2 for usage and configuration
// errors (nothing started), 1 for runtime failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopscoped", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tails, watches, listens []string
	fs.Func("tail", "follow a growing native trace file: [name=]path (repeatable)", appendTo(&tails))
	fs.Func("watch", "process a rotated-capture directory in segment order: [name=]dir (repeatable)", appendTo(&watches))
	fs.Func("listen", "accept native trace streams: [name=]tcp:host:port or [name=]unix:/path.sock (repeatable)", appendTo(&listens))
	var (
		journalPath  = fs.String("journal", "", "append loop events to this JSONL file")
		retain       = fs.Duration("retain", 168*time.Hour, "journal retention horizon: rotated segments (journal.<unix-seconds>) older than this are deleted (0: keep forever)")
		webhookURL   = fs.String("webhook", "", "POST each loop event as JSON to this URL")
		httpAddr     = fs.String("http", "", "serve the /api/v1 API (plus /metrics, /debug/pprof); a bare :port binds loopback only")
		cpPath       = fs.String("checkpoint", "", "periodically write an atomic resume checkpoint here, and the /api/v1/stats sketches to <checkpoint>.analytics")
		cpInterval   = fs.Duration("checkpoint-interval", time.Second, "checkpoint period")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for detector drain and sink flush")
		exitIdle     = fs.Duration("exit-idle", 0, "exit cleanly once every source has been idle this long (0: run forever)")
		poll         = fs.Duration("poll", 200*time.Millisecond, "poll interval for file-backed sources")
		pollMax      = fs.Duration("poll-max", 0, "let quiet file-backed sources back their poll interval off up to this bound (0: fixed -poll rate)")
		fsyncMode    = fs.String("fsync", "off", "journal/trail flush policy: off (OS-buffered) or always (fsync per event)")
		maxStreams   = fs.Int("max-streams", 65536, "memory governor: live replica streams per source before cold ones are shed (0: unlimited)")
		vantage      = fs.String("vantage", "", "stable identity of this daemon in a fleet, stamped into events and API meta (default: hostname)")
		flightEvents = fs.Int("flight-events", 4096, "flight-recorder ring capacity per detector shard (0: disable decision tracing)")
		trailPath    = fs.String("trail-journal", "", "append each finalized loop's sealed decision trail to this JSONL file")
	)
	detector := core.BindFlags(fs)
	newLogger := obs.BindLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: loopscoped [flags]   (sources come from -tail/-watch/-listen)")
		fs.PrintDefaults()
		return 2
	}
	if len(tails)+len(watches)+len(listens) == 0 {
		fmt.Fprintln(stderr, "loopscoped: no sources; give at least one -tail, -watch or -listen")
		return 2
	}

	// Configuration mistakes before anything started exit 2 so init
	// systems distinguish "fix the flags" from "the daemon died".
	usage := func(err error) int {
		fmt.Fprintf(stderr, "loopscoped: %v\n", err)
		return 2
	}
	reg := obs.NewRegistry()
	logger, err := newLogger(obs.LogOptions{Prefix: "loopscoped", Metrics: reg, W: stderr})
	if err != nil {
		return usage(err)
	}
	fsync, err := serve.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return usage(fmt.Errorf("bad -fsync %q: want off or always", *fsyncMode))
	}

	// The vantage identity must be stable across restarts (it is part
	// of how the aggregator attributes and dedups observations), so
	// the default is the hostname, not anything ephemeral.
	if *vantage == "" {
		if host, err := os.Hostname(); err == nil {
			*vantage = host
		}
	}

	// Analytics are always on: the collector is cheap (a few sketch
	// increments per finalized loop) and /api/v1/stats answering 404
	// on a stock build would be a trap. They persist next to the
	// checkpoint, on its ticks.
	collector := analytics.NewCollector(analytics.Options{
		OnIngest: reg.Counter(obs.MetricAnalyticsIngested).Inc,
		OnDedup:  reg.Counter(obs.MetricAnalyticsDeduped).Inc,
	})
	var snapPath string
	if *cpPath != "" {
		snapPath = *cpPath + ".analytics"
	}

	var fr *flight.Recorder
	if *flightEvents > 0 {
		fr = flight.New(flight.Options{PerShardEvents: *flightEvents})
	} else if *trailPath != "" {
		return usage(fmt.Errorf("-trail-journal needs the flight recorder; drop -flight-events 0"))
	}

	dcfg := detector()
	dcfg.MaxActiveStreams = *maxStreams
	d, err := serve.New(serve.Config{
		Vantage:               *vantage,
		Detector:              dcfg,
		CheckpointPath:        *cpPath,
		CheckpointInterval:    *cpInterval,
		DrainTimeout:          *drainTimeout,
		ExitIdle:              *exitIdle,
		TailPoll:              *poll,
		TailPollMax:           *pollMax,
		Fsync:                 fsync,
		Metrics:               reg,
		Logger:                logger,
		Flight:                fr,
		TrailPath:             *trailPath,
		Analytics:             collector,
		AnalyticsSnapshotPath: snapPath,
	})
	if err != nil {
		return usage(err)
	}

	for _, spec := range tails {
		name, path := splitSpec(spec, func(p string) string { return trimExt(filepath.Base(p)) })
		if err := d.AddTailSource(name, path); err != nil {
			return usage(err)
		}
		logger.Info("tailing file", "path", path, "source", name)
	}
	for _, spec := range watches {
		name, dir := splitSpec(spec, func(p string) string { return filepath.Base(filepath.Clean(p)) })
		if err := d.AddDirSource(name, dir); err != nil {
			return usage(err)
		}
		logger.Info("watching directory", "dir", dir, "source", name)
	}
	for i, spec := range listens {
		idx := i
		name, ep := splitSpec(spec, func(string) string {
			if idx == 0 {
				return "feed"
			}
			return fmt.Sprintf("feed%d", idx)
		})
		network, addr, ok := strings.Cut(ep, ":")
		if !ok || (network != "tcp" && network != "unix") {
			return usage(fmt.Errorf("bad -listen %q: want tcp:host:port or unix:/path.sock", spec))
		}
		bound, err := d.AddFeedSource(name, network, addr)
		if err != nil {
			return usage(err)
		}
		logger.Info("listening", "addr", bound.String(), "network", network, "source", name)
	}

	if *journalPath != "" {
		j, err := serve.NewJournal(serve.JournalOptions{
			Path: *journalPath, MaxBytes: journalMaxBytes, Retain: *retain,
			Fsync: fsync, Health: d.Health(),
			Metrics: reg, Logger: logger,
		})
		if err != nil {
			return usage(err)
		}
		d.AddSink(j)
	}
	if *webhookURL != "" {
		d.AddSink(serve.NewWebhook(serve.WebhookOptions{
			URL: *webhookURL, Health: d.Health(), Metrics: reg,
		}))
	}

	var srv *obs.Server
	if *httpAddr != "" {
		if srv, err = obs.StartHandler(*httpAddr, d.Handler()); err != nil {
			return usage(err)
		}
		logger.Info("serving API", "url", "http://"+srv.Addr()+"/",
			"endpoints", "api/v1/{health,loops,sources,trace,stats,statusz} metrics")
	}

	// SIGTERM/SIGINT trigger one graceful drain; a second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	err = d.Run(ctx)
	if srv != nil {
		srv.Close()
	}
	if err != nil && ctx.Err() == nil {
		logger.Error(err.Error())
		return 1
	}
	logger.Info("stopped")
	return 0
}

// splitSpec parses "name=value" source specs, deriving the name from
// the value when absent.
func splitSpec(spec string, derive func(string) string) (name, value string) {
	if n, v, ok := strings.Cut(spec, "="); ok && n != "" && !strings.Contains(n, "/") {
		return n, v
	}
	return derive(spec), spec
}

// trimExt drops one filename extension.
func trimExt(name string) string {
	if ext := filepath.Ext(name); ext != "" {
		return strings.TrimSuffix(name, ext)
	}
	return name
}
