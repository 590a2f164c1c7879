package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
)

// Config configures a Daemon.
type Config struct {
	// Detector is the core detection configuration every source's
	// session runs with.
	Detector core.Config
	// Vantage is this daemon instance's stable identity in a fleet
	// (cmd/loopscoped defaults it to the hostname). It is stamped into
	// every published event — journal lines, webhook payloads, the API
	// ring — and into every /api/v1 response's meta block, so the
	// loopscope-agg tier can attribute observations to the tap that
	// made them. Empty is fine for single-daemon deployments.
	Vantage string
	// CheckpointPath, when set, enables periodic atomic checkpoints
	// and resume-on-start.
	CheckpointPath string
	// CheckpointInterval is the checkpoint period (<= 0: 1s).
	CheckpointInterval time.Duration
	// DrainTimeout bounds graceful shutdown: detector flush, final
	// checkpoint and sink draining must finish within it (<= 0: 5s).
	DrainTimeout time.Duration
	// ExitIdle, when positive, stops the daemon gracefully once every
	// source has been idle (no new data) for this long. Zero runs
	// forever. It exists for batch-ish deployments and tests.
	ExitIdle time.Duration
	// TailPoll is the poll interval for file-backed sources (<= 0:
	// 200ms).
	TailPoll time.Duration
	// Metrics receives the daemon's gauges and counters (may be nil).
	Metrics *obs.Registry
	// Logger receives operational events (nil: silent).
	Logger *slog.Logger
	// Flight, when non-nil, records per-decision lifecycle events for
	// every source's detector; finalized loops get their decision
	// trail sealed under the event ID, served by /api/v1/trace/{id}.
	Flight *flight.Recorder
	// TrailPath, when set (and Flight is non-nil), appends every
	// sealed final-loop trail to this JSONL file.
	TrailPath string
	// TailPollMax, when greater than TailPoll, lets quiet file-backed
	// sources escalate their poll interval (doubling, jittered) up to this
	// bound instead of polling at the fixed rate forever. Zero keeps
	// the fixed interval.
	TailPollMax time.Duration
	// Fsync selects the flush-to-stable-storage policy for the journal
	// and trail sinks the daemon owns.
	Fsync fsyncPolicy
	// FaultInjector, when non-nil, injects runtime faults at the
	// daemon's I/O seams (journal/trail/checkpoint writes, webhook
	// posts, source reads). Chaos tests wire a chaos.Plan here;
	// production leaves it nil and pays a nil-check per seam.
	FaultInjector resil.Injector
	// RestartPolicy shapes supervisor restart backoff. The zero value
	// selects the defaults (500ms base doubling to 30s, jittered,
	// reset after 60s healthy); tests shrink it.
	RestartPolicy resil.Policy
	// Analytics, when non-nil, receives every published loop event —
	// the streaming sketch state behind /api/v1/stats. Nil disables
	// analytics (every feed point is nil-safe).
	Analytics *analytics.Collector
	// AnalyticsSnapshotPath, when set (with Analytics non-nil),
	// persists the analytics state atomically on every checkpoint tick
	// and restores it on start, so sketches survive kill -9 the same
	// way source positions do. It is saved with the checkpoint, so it
	// needs CheckpointPath; cmd/loopscoped always puts it at
	// <checkpoint>.analytics. The snapshot is written before the
	// checkpoint: on a crash between the two, the resumed sources
	// re-emit events the analytics already hold, and the collector's
	// seen-ID ring (persisted with the snapshot) suppresses them — the
	// ordering that keeps analytics counts exactly equal to a
	// fault-free run.
	AnalyticsSnapshotPath string
}

// ringSize is how many recent events the ring behind /api/v1/loops and
// the status page keeps.
const ringSize = 1024

// Daemon is the continuous-operation core: sources in, detection in
// the middle, sinks out, with checkpointed resume and graceful drain.
// Wire it up (AddTailSource / AddDirSource / AddFeedSource, AddSink),
// then Run it; cmd/loopscoped is a thin flag-parsing shell around
// exactly that sequence.
type Daemon struct {
	cfg      Config
	log      *slog.Logger
	ring     *Ring
	sinks    []Sink
	sources  []*sourceState
	cp       *Checkpoint
	trailLog *trailLog
	health   *resil.HealthSet

	started  time.Time
	cpC      *obs.Counter
	cpG      *obs.Gauge
	cpLastNs atomic.Int64

	idleMu   sync.Mutex
	fatalErr error
	stopOnce sync.Once
	stopped  chan struct{}

	// testCrash, when set by a test, is consulted after every observed
	// record; returning true makes the daemon die abruptly (no drain,
	// no final checkpoint), simulating SIGKILL in-process.
	testCrash func(source string, records int64) bool
}

// New builds a Daemon and, when cfg.CheckpointPath is set, loads the
// previous incarnation's checkpoint. A corrupt checkpoint is
// quarantined (durable.Load) and the daemon starts fresh rather than
// crash-looping: resuming from zero is always safe — the journal
// deduplicates re-emitted events — while refusing to start turns one
// bad write into an outage. The quarantine preserves the image for
// post-mortem and the component is marked degraded so the operator
// sees it on /api/v1/health.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Detector.Validate(); err != nil {
		return nil, fmt.Errorf("serve: detector config: %w", err)
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.TailPoll <= 0 {
		cfg.TailPoll = 200 * time.Millisecond
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	d := &Daemon{
		cfg: cfg,
		log: log,
		// started is set here, not in Run: cmd/loopscoped serves
		// Handler (whose /api/v1/health reads it) before calling Run, so a
		// write from Run would race — and report uptime-since-epoch
		// until then.
		started: time.Now(),
		ring:    NewRing(ringSize),
		stopped: make(chan struct{}),
		cpC:     cfg.Metrics.Counter(obs.MetricServeCheckpoints),
		cpG:     cfg.Metrics.Gauge(obs.MetricServeCheckpointUnixNs),
	}
	// Every health change is mirrored into a per-component gauge so
	// dashboards see degradation without polling /api/v1/health.
	d.health = resil.NewHealthSet(func(component string, h resil.Health) {
		cfg.Metrics.Gauge(obs.LabelMetric(obs.MetricComponentHealth, "component", component)).Set(int64(h))
		log.Info("component health changed", "component", component, "health", h.String())
	})
	if cfg.CheckpointPath != "" {
		cp, quarantined, err := loadCheckpoint(cfg.CheckpointPath)
		if err := d.loaded("checkpoint", "checkpoint", cfg.CheckpointPath, quarantined, err); err != nil {
			return nil, err
		}
		d.cp = cp
	}
	if cfg.AnalyticsSnapshotPath != "" && cfg.Analytics != nil {
		quarantined, err := cfg.Analytics.Load(cfg.AnalyticsSnapshotPath)
		if err := d.loaded("analytics", "analytics snapshot", cfg.AnalyticsSnapshotPath, quarantined, err); err != nil {
			return nil, err
		}
	}
	if cfg.TrailPath != "" && cfg.Flight != nil {
		tl, err := newTrailLog(trailLogOptions{
			Path:     cfg.TrailPath,
			Fsync:    cfg.Fsync,
			Injector: cfg.FaultInjector,
			Metrics:  cfg.Metrics,
			Logger:   log,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening trail log: %w", err)
		}
		d.trailLog = tl
	}
	return d, nil
}

// loaded settles a durable.Load of component's image at path: a
// quarantined image starts the component fresh and marks it degraded;
// an image that could not even be moved aside is an operator problem
// (permissions, dead disk), not a stale image, and fails New.
func (d *Daemon) loaded(component, what, path string, quarantined bool, err error) error {
	switch {
	case quarantined:
		d.log.Warn("corrupt "+what+" quarantined; starting fresh", "path", path, "err", err)
		d.health.Set(component, resil.Degraded)
	case err != nil:
		return fmt.Errorf("serve: loading %s: %w", what, err)
	}
	return nil
}

// Health exposes the daemon's per-component health set; sinks built by
// the caller (journal, webhook) report into it, and /api/v1/health
// and /api/v1/statusz render it.
func (d *Daemon) Health() *resil.HealthSet { return d.health }

// AddSink attaches a sink; every event from every source reaches it.
// The internal ring (the HTTP API's backing store) is always attached.
func (d *Daemon) AddSink(s Sink) { d.sinks = append(d.sinks, s) }

// publish fans one event out to the ring and every sink, stamping
// provenance as it goes: the published hop on entry, the journaled hop
// after the journal's synchronous append returns — so the ring copy
// (pull transport) and the webhook payloads (push transport) both
// carry the journal-durability stamp. The journal line itself cannot
// contain its own completion stamp (it is written before the stamp
// exists); that is intentional and documented in the provenance
// package.
func (d *Daemon) publish(e Event) {
	e.Prov = e.Prov.Stamp(provenance.HopPublished, provenance.Now())
	for _, s := range d.sinks {
		if j, ok := s.(*Journal); ok {
			j.Publish(e)
			e.Prov = e.Prov.Stamp(provenance.HopJournaled, provenance.Now())
		}
	}
	d.ring.Publish(e)
	for _, s := range d.sinks {
		if _, ok := s.(*Journal); ok {
			continue
		}
		s.Publish(e)
	}
}

// addSource registers a source under name, restoring its checkpoint
// entry if the previous incarnation had one of the same name and kind.
// The name is the event-ID namespace and the checkpoint key, so it must
// be unique and non-empty.
func (d *Daemon) addSource(name, kind, path string) (*sourceState, error) {
	if name == "" {
		return nil, errors.New("serve: empty source name")
	}
	for _, s := range d.sources {
		if s.name == name {
			return nil, fmt.Errorf("serve: duplicate source name %q", name)
		}
	}
	s := d.newSourceState(name, kind, path)
	if d.cp != nil && d.cp.Sources[name].Kind == kind {
		s.cp = d.cp.Sources[name]
	}
	d.sources = append(d.sources, s)
	return s, nil
}

// AddTailSource follows a growing native trace file at path.
func (d *Daemon) AddTailSource(name, path string) error {
	s, err := d.addSource(name, "tail", path)
	if err == nil {
		s.run = func(ctx context.Context) error { return s.consume(ctx, s.tailUnit) }
	}
	return err
}

// AddDirSource processes a rotated-capture directory: segments are
// consumed in lexical filename order as they appear, the newest one
// followed live.
func (d *Daemon) AddDirSource(name, dir string) error {
	if st, err := os.Stat(dir); err != nil {
		return err
	} else if !st.IsDir() {
		return fmt.Errorf("serve: %s is not a directory", dir)
	}
	s, err := d.addSource(name, "dir", dir)
	if err == nil {
		s.run = func(ctx context.Context) error { return s.consume(ctx, (&dirKind{s: s}).next) }
	}
	return err
}

// AddFeedSource listens on network/addr ("tcp", "127.0.0.1:4444" or
// "unix", "/run/loopscope.sock") for native trace streams. The
// listener is created eagerly so callers (and tests binding port 0)
// learn the bound address before Run.
func (d *Daemon) AddFeedSource(name, network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s, err := d.addSource(name, "feed", addr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.listener = ln
	s.run = func(ctx context.Context) error { return s.consume(ctx, s.feedUnit) }
	return ln.Addr(), nil
}

// sourceIdle is called by a source that has seen no data for ExitIdle;
// when every source is idle the daemon stops gracefully.
func (d *Daemon) sourceIdle() {
	d.idleMu.Lock()
	defer d.idleMu.Unlock()
	for _, s := range d.sources {
		s.mu.Lock()
		idle := s.idle
		s.mu.Unlock()
		if !idle {
			return
		}
	}
	d.log.Info("all sources idle; stopping", "idle", d.cfg.ExitIdle)
	d.stop(nil)
}

// stop triggers Run's shutdown exactly once.
func (d *Daemon) stop(err error) {
	d.stopOnce.Do(func() {
		d.fatalErr = err
		close(d.stopped)
	})
}

// checkpoint snapshots every source's position and writes it
// atomically. Positions are maintained under each source's mutex after
// publication, so the snapshot never claims an event the journal does
// not hold. Snapshots are taken without a checkpoint file too: taking
// one settles the source's restart point, which bounds what the source
// keeps to find it.
func (d *Daemon) checkpoint() error {
	cp := &Checkpoint{Sources: make(map[string]SourceCheckpoint, len(d.sources))}
	for _, s := range d.sources {
		cp.Sources[s.name] = s.snapshot()
	}
	if d.cfg.CheckpointPath == "" {
		return nil
	}
	if host, err := os.Hostname(); err == nil {
		cp.Host = host
	}
	if err := resil.Inject(d.cfg.FaultInjector, resil.OpCheckpointSave); err != nil {
		d.health.Set("checkpoint", resil.Failing)
		return err
	}
	// Analytics snapshot first, checkpoint second: see the
	// AnalyticsSnapshotPath doc for why this ordering makes a crash
	// between the two harmless.
	if d.cfg.Analytics != nil && d.cfg.AnalyticsSnapshotPath != "" {
		if err := d.cfg.Analytics.Save(d.cfg.AnalyticsSnapshotPath); err != nil {
			d.health.Set("analytics", resil.Failing)
			return err
		}
		d.health.Set("analytics", resil.Healthy)
	}
	if err := cp.Save(d.cfg.CheckpointPath); err != nil {
		d.health.Set("checkpoint", resil.Failing)
		return err
	}
	d.health.Set("checkpoint", resil.Healthy)
	d.cpC.Inc()
	now := time.Now().UnixNano()
	d.cpLastNs.Store(now)
	d.cpG.Set(now)
	return nil
}

// Run starts every source under supervision and blocks until ctx is
// cancelled (SIGTERM in cmd/loopscoped), every source goes idle past
// ExitIdle, or a test-injected crash. Orderly shutdown then: stop the
// runners, drain every session (open loops flushed as truncated
// events), write the final checkpoint, and close the sinks, all within
// DrainTimeout.
func (d *Daemon) Run(ctx context.Context) error {
	if len(d.sources) == 0 {
		return errors.New("serve: no sources configured")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for _, s := range d.sources {
		wg.Add(1)
		go func(s *sourceState) {
			defer wg.Done()
			d.supervise(runCtx, s)
		}(s)
	}

	ticker := time.NewTicker(d.cfg.CheckpointInterval)
	defer ticker.Stop()

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-d.stopped:
			break loop
		case <-ticker.C:
			if err := d.checkpoint(); err != nil {
				d.log.Warn("checkpoint failed", "err", err)
			}
		}
	}

	cancel()
	if d.fatalErr != nil {
		// Abrupt death (test crash): no drain, no final checkpoint —
		// exactly what SIGKILL leaves behind.
		wg.Wait()
		return d.fatalErr
	}

	// Graceful drain under the deadline.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer drainCancel()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-drainCtx.Done():
		d.log.Warn("drain: source runners did not stop in time", "timeout", d.cfg.DrainTimeout)
	}

	for _, s := range d.sources {
		s.drain()
	}
	if err := d.checkpoint(); err != nil {
		d.log.Warn("final checkpoint failed", "err", err)
	}
	var firstErr error
	for _, s := range d.sinks {
		if err := s.Close(drainCtx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: closing sink %s: %w", s.Name(), err)
		}
	}
	d.trailLog.Close()
	return firstErr
}
