// Package agg is loopscope's fleet tier: an aggregation daemon core
// that ingests loop events from many loopscoped instances (pushed
// over webhook POSTs or pulled through /api/v1/loops cursor
// pagination), deduplicates observations of the same underlying
// routing loop seen from different vantages, and emits cluster-level
// FleetLoop records carrying per-vantage evidence.
//
// Correlation model: two observations describe the same loop when
// their destination prefixes fall in the same aggregated prefix
// (masked to Config.AggBits), their TTL deltas differ by at most
// Config.TTLSlack (the TTL decrement is the loop's router-cycle
// length — vantages watching the same cycle measure the same delta),
// and their time windows overlap within Config.JoinWindow. The
// cluster's window grows to the union of its members', so a loop that
// flaps across a long outage accretes every vantage's view.
//
// Determinism contract: the fleet loop set is a pure function of the
// observation sequence. Observations are journaled (append-only
// JSONL, torn-tail repaired, deduplicated by vantage+event ID) before
// they mutate state, and a restart replays the journal in order — so
// kill -9 at any point reproduces the same FleetLoop set and the same
// fleet statistics the pre-crash process would have served. No
// wall-clock reading participates in clustering; arrival stamps ride
// in the journal itself.
//
// Fleet statistics reuse internal/analytics keyed by vantage: the
// per-vantage sketches merge with the collector's associative,
// commutative element-wise merges in sorted vantage order, so the
// fleet-wide stats document is byte-identical no matter which daemon
// reported first.
package agg

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/durable"
	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
	"loopscope/internal/routing"
	"loopscope/pkg/loopscope"
)

// Defaults for the correlation knobs.
const (
	// DefaultAggBits aggregates destination prefixes to /24 — the
	// paper's loop identities are destination-prefix scoped, and /24
	// absorbs per-host detail without fusing unrelated networks.
	DefaultAggBits = 24
	// DefaultJoinWindow is the slack allowed between observation
	// windows: vantages tap different links of the same cycle, so
	// their first/last looping packets differ by propagation and
	// detection-horizon skew, not by much more than seconds.
	DefaultJoinWindow = 5 * time.Second
	// DefaultTTLSlack requires exact TTL-delta agreement: every tap
	// on one cycle sees the same decrement.
	DefaultTTLSlack = 0
)

// Transports an observation can arrive by.
const (
	TransportPush = "push"
	TransportPull = "pull"
)

// Config configures an Aggregator.
type Config struct {
	// AggBits is the prefix-aggregation length of the correlation key
	// (0 means DefaultAggBits).
	AggBits int
	// JoinWindow is the time slack when matching observation windows
	// (0 means DefaultJoinWindow; negative disables slack entirely).
	JoinWindow time.Duration
	// TTLSlack is the maximum TTL-delta difference still considered
	// the same loop (negative means 0).
	TTLSlack int
	// Journal is the observation journal path; empty keeps state in
	// memory only (a restart starts blank).
	Journal string
	// Checkpoint is the pull-cursor checkpoint path; empty disables.
	Checkpoint string
	// Metrics, Health, Logger are optional wiring into the shared
	// observability layers; all nil-safe.
	Metrics *obs.Registry
	Health  *resil.HealthSet
	Logger  *slog.Logger
	// Now supplies arrival stamps and the analytics clock; nil uses
	// time.Now. Tests pin it.
	Now func() time.Time
}

// Observation is one loop event attributed to the vantage that saw
// it — the unit the journal stores and Ingest consumes. ReceivedAtNs
// is stamped at first ingest and preserved by replay, so lag
// rendering survives restarts without wall-clock reads during replay.
type Observation struct {
	Vantage      string          `json:"vantage"`
	Transport    string          `json:"transport,omitempty"`
	ReceivedAtNs int64           `json:"receivedAtNs,omitempty"`
	Event        loopscope.Event `json:"event"`
}

// The aggregator renders the wire types of pkg/loopscope directly.
type (
	FleetLoop   = loopscope.FleetLoop
	Evidence    = loopscope.FleetEvidence
	VantageInfo = loopscope.FleetVantage
)

// cluster is one fleet loop under construction. Everything in it
// derives from journaled observations — no wall-clock state — which
// is what makes replay reproduce clusters exactly.
type cluster struct {
	id       string
	prefix   string // aggregated correlation prefix
	ttlDelta int
	startNs  int64
	endNs    int64
	evidence []Evidence
	vantages map[string]bool
}

// vantageState is one daemon's standing: counters for the listing,
// the pull cursor, and the latest arrival stamp.
type vantageState struct {
	name         string
	transports   map[string]bool
	observations int64
	duplicates   int64
	lastEventNs  int64
	lastSeenNs   int64 // wall clock, from Observation.ReceivedAtNs
	cursor       int64
	pollErrs     int64
	lastErr      string
	// skewNs is the running minimum of (arrival stamp − publish
	// stamp) over provenance-carrying observations: transport latency
	// plus clock offset, so the minimum over many events approaches
	// the offset itself. Negative means the vantage's clock runs ahead
	// of the aggregator's. Derived purely from journaled values, so
	// replay reproduces it.
	skewNs      int64
	skewSamples int64
}

// Aggregator is the fleet-correlation state machine. Safe for
// concurrent use; the HTTP surface, the pollers, and the webhook
// ingest path all funnel into Ingest.
type Aggregator struct {
	cfg Config
	log *slog.Logger
	now func() time.Time

	stats *analytics.Collector
	// latency holds the per-(pipeline segment, vantage) provenance
	// sketches; fed under a.mu by applyLocked, so replay rebuilds it
	// deterministically alongside the cluster set.
	latency *analytics.LatencyStore

	mu       sync.Mutex
	seen     map[string]struct{} // vantage\x00eventID
	clusters []*cluster          // founding order
	byKey    map[string][]*cluster
	vantages map[string]*vantageState
	journal  *durable.Log
	started  time.Time

	gFleetLoops *obs.Gauge
	gVantages   *obs.Gauge
	cJournalErr *obs.Counter
}

// New builds an Aggregator, repairs and replays its journal, and
// loads the cursor checkpoint. The returned aggregator is ready to
// ingest; Close flushes and releases the journal.
func New(cfg Config) (*Aggregator, error) {
	if cfg.AggBits == 0 {
		cfg.AggBits = DefaultAggBits
	}
	if cfg.AggBits < 0 || cfg.AggBits > 32 {
		return nil, fmt.Errorf("agg: AggBits %d outside [0,32]", cfg.AggBits)
	}
	if cfg.JoinWindow == 0 {
		cfg.JoinWindow = DefaultJoinWindow
	}
	if cfg.JoinWindow < 0 {
		cfg.JoinWindow = 0
	}
	if cfg.TTLSlack < 0 {
		cfg.TTLSlack = 0
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	a := &Aggregator{
		cfg:         cfg,
		log:         log,
		now:         now,
		stats:       analytics.NewCollector(analytics.Options{Now: now}),
		latency:     analytics.NewLatencyStore(),
		seen:        make(map[string]struct{}),
		byKey:       make(map[string][]*cluster),
		vantages:    make(map[string]*vantageState),
		started:     now(),
		gFleetLoops: cfg.Metrics.Gauge(obs.MetricAggFleetLoops),
		gVantages:   cfg.Metrics.Gauge(obs.MetricAggVantages),
		cJournalErr: cfg.Metrics.Counter(obs.MetricAggJournalErrors),
	}
	if cfg.Journal != "" {
		if err := a.openJournal(); err != nil {
			return nil, err
		}
	}
	if cfg.Checkpoint != "" {
		a.loadCheckpoint()
	}
	return a, nil
}

// Close flushes and closes the journal. The aggregator must not be
// used afterwards.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.journal == nil {
		return nil
	}
	err := a.journal.Close()
	a.journal = nil
	return err
}

// Ingest records one observation. It returns true when the
// observation was new (journaled and folded into a cluster) and false
// when it was a duplicate of one already seen from the same vantage —
// the at-least-once transports redeliver freely and this is the
// idempotency point. An observation without a vantage identity or
// event ID is rejected with an error.
func (a *Aggregator) Ingest(o Observation) (bool, error) {
	if o.Vantage == "" {
		o.Vantage = o.Event.Vantage
	}
	if o.Vantage == "" {
		o.Vantage = o.Event.Source
	}
	if o.Vantage == "" {
		return false, errors.New("agg: observation carries no vantage identity")
	}
	if o.Event.ID == "" {
		return false, errors.New("agg: observation carries no event ID")
	}
	if o.ReceivedAtNs == 0 {
		o.ReceivedAtNs = a.now().UnixNano()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := o.Vantage + "\x00" + o.Event.ID
	if _, dup := a.seen[key]; dup {
		vs := a.vantageLocked(o.Vantage)
		vs.duplicates++
		vs.noteTransport(o.Transport)
		a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricAggDuplicates, "vantage", o.Vantage)).Inc()
		return false, nil
	}
	// Journal before mutating state: a crash after the append replays
	// this observation, a crash before it never saw it — either way
	// the on-disk sequence and the in-memory state agree. An append
	// failure degrades durability, not availability: the observation
	// still counts, the health ladder says so.
	if a.journal != nil {
		if err := a.appendJournal(o); err != nil {
			a.cJournalErr.Inc()
			a.cfg.Health.Set("journal", resil.Degraded)
			a.log.Error("journal append failed; observation kept in memory only",
				"vantage", o.Vantage, "id", o.Event.ID, "err", err)
		} else {
			a.cfg.Health.Set("journal", resil.Healthy)
		}
	}
	a.applyLocked(o)
	return true, nil
}

// apply folds an observation into state, taking the lock — the replay
// path uses it (journal appends are disabled during replay because
// the line is already on disk).
func (a *Aggregator) apply(o Observation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := o.Vantage + "\x00" + o.Event.ID
	if _, dup := a.seen[key]; dup {
		a.vantageLocked(o.Vantage).duplicates++
		return
	}
	a.applyLocked(o)
}

// applyLocked is the single state-mutation path, under a.mu. Every
// side effect here is a pure function of the observation sequence.
func (a *Aggregator) applyLocked(o Observation) {
	a.seen[o.Vantage+"\x00"+o.Event.ID] = struct{}{}
	vs := a.vantageLocked(o.Vantage)
	vs.observations++
	vs.noteTransport(o.Transport)
	if o.Event.EndNs > vs.lastEventNs {
		vs.lastEventNs = o.Event.EndNs
	}
	if o.ReceivedAtNs > vs.lastSeenNs {
		vs.lastSeenNs = o.ReceivedAtNs
	}
	a.closeOutProvenanceLocked(&o, vs)
	a.correlateLocked(o)
	a.stats.RecordLoop(o.Vantage, analytics.LoopObs{
		ID:         o.Vantage + "\x00" + o.Event.ID,
		Prefix:     o.Event.Prefix,
		DurationNs: o.Event.DurationNs,
		TTLDelta:   o.Event.TTLDelta,
		Streams:    o.Event.Streams,
		Replicas:   o.Event.Replicas,
	})
	a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricAggObservations, "vantage", o.Vantage)).Inc()
	a.gFleetLoops.Set(int64(len(a.clusters)))
	a.gVantages.Set(int64(len(a.vantages)))
}

// closeOutProvenanceLocked finishes an observation's hop record and
// feeds the latency sketches. The ingested and clustered stamps are
// both the journaled arrival stamp (clustering is synchronous under
// the ingest lock), so the close-out is a pure function of journaled
// data — a replay reproduces every sketch byte for byte without
// reading a clock. Negative cross-process deltas (vantage clock ahead
// of the aggregator) are clamped to zero, counted in
// loopscope_provenance_skew_total, and kept out of the sketches; the
// per-vantage skew estimate tracks the running minimum offset so the
// vantage listing can say why.
func (a *Aggregator) closeOutProvenanceLocked(o *Observation, vs *vantageState) {
	p := o.Event.Prov
	if p == nil {
		return
	}
	closed := *p
	closed.IngestedNs = o.ReceivedAtNs
	closed.ClusteredNs = o.ReceivedAtNs
	o.Event.Prov = &closed // evidence rows carry the closed-out record
	if p.PublishedNs > 0 {
		d := o.ReceivedAtNs - p.PublishedNs
		if vs.skewSamples == 0 || d < vs.skewNs {
			vs.skewNs = d
		}
		vs.skewSamples++
	}
	for _, l := range provenance.Latencies(&closed) {
		a.latency.Observe(l.Segment, o.Vantage, o.Event.ID, l.Ns, l.Clamped)
		if l.Clamped {
			a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricProvenanceSkewTotal, "vantage", o.Vantage)).Inc()
		}
	}
}

// correlateLocked joins the observation to the first compatible
// cluster in founding order, or founds a new one. First-match in a
// deterministic order keeps replay exact; the join test is the
// correlation key described in the package comment.
func (a *Aggregator) correlateLocked(o Observation) {
	key := a.aggKey(o.Event.Prefix)
	slack := int64(a.cfg.JoinWindow)
	for _, c := range a.byKey[key] {
		if intAbs(c.ttlDelta-o.Event.TTLDelta) <= a.cfg.TTLSlack &&
			o.Event.StartNs <= c.endNs+slack && o.Event.EndNs >= c.startNs-slack {
			if o.Event.StartNs < c.startNs {
				c.startNs = o.Event.StartNs
			}
			if o.Event.EndNs > c.endNs {
				c.endNs = o.Event.EndNs
			}
			c.evidence = append(c.evidence, evidence(o))
			c.vantages[o.Vantage] = true
			return
		}
	}
	c := &cluster{
		id:       fleetID(key, o.Vantage, o.Event.ID),
		prefix:   key,
		ttlDelta: o.Event.TTLDelta,
		startNs:  o.Event.StartNs,
		endNs:    o.Event.EndNs,
		evidence: []Evidence{evidence(o)},
		vantages: map[string]bool{o.Vantage: true},
	}
	a.clusters = append(a.clusters, c)
	a.byKey[key] = append(a.byKey[key], c)
}

// aggKey masks a destination prefix to the configured aggregation
// length. An unparseable prefix correlates by its literal string —
// identical observations still cluster, unrelated ones cannot collide
// with real prefixes.
func (a *Aggregator) aggKey(prefix string) string {
	p, err := routing.ParsePrefix(prefix)
	if err != nil {
		return prefix
	}
	if p.Bits > a.cfg.AggBits {
		p = routing.NewPrefix(p.Addr, a.cfg.AggBits)
	}
	return p.String()
}

// evidence renders an observation's evidence row.
func evidence(o Observation) Evidence {
	return Evidence{
		Vantage:   o.Vantage,
		EventID:   o.Event.ID,
		Source:    o.Event.Source,
		Prefix:    o.Event.Prefix,
		StartNs:   o.Event.StartNs,
		EndNs:     o.Event.EndNs,
		TTLDelta:  o.Event.TTLDelta,
		Streams:   o.Event.Streams,
		Replicas:  o.Event.Replicas,
		Truncated: o.Event.Truncated,
		Prov:      o.Event.Prov,
	}
}

// fleetID derives a fleet loop's stable identity from its founding
// observation, the same FNV-1a discipline the daemon's event IDs use:
// replay founds the same clusters from the same observations, so the
// IDs survive restarts.
func fleetID(aggPrefix, vantage, eventID string) string {
	h := fnv.New64a()
	h.Write([]byte(aggPrefix))
	h.Write([]byte{0})
	h.Write([]byte(vantage))
	h.Write([]byte{0})
	h.Write([]byte(eventID))
	return fmt.Sprintf("f%016x", h.Sum64())
}

// vantage returns the named vantage's state, creating it. Callers
// outside the lock.
func (a *Aggregator) vantage(name string) *vantageState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.vantageLocked(name)
}

func (a *Aggregator) vantageLocked(name string) *vantageState {
	vs := a.vantages[name]
	if vs == nil {
		vs = &vantageState{name: name, transports: make(map[string]bool)}
		a.vantages[name] = vs
		a.gVantages.Set(int64(len(a.vantages)))
	}
	return vs
}

func (vs *vantageState) noteTransport(t string) {
	if t != "" {
		vs.transports[t] = true
	}
}

// FleetLoops renders the deduplicated loop set in founding order.
// Vantage lists are sorted; evidence stays in arrival order.
func (a *Aggregator) FleetLoops() []FleetLoop {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FleetLoop, 0, len(a.clusters))
	for _, c := range a.clusters {
		out = append(out, c.render())
	}
	return out
}

func (c *cluster) render() FleetLoop {
	names := make([]string, 0, len(c.vantages))
	for v := range c.vantages {
		names = append(names, v)
	}
	sort.Strings(names)
	ev := make([]Evidence, len(c.evidence))
	copy(ev, c.evidence)
	return FleetLoop{
		ID:           c.id,
		Prefix:       c.prefix,
		TTLDelta:     c.ttlDelta,
		StartNs:      c.startNs,
		EndNs:        c.endNs,
		DurationNs:   c.endNs - c.startNs,
		Vantages:     names,
		Observations: len(c.evidence),
		Evidence:     ev,
	}
}

// Vantages renders the per-vantage standing table, sorted by name.
// Lag is measured against the aggregator's clock at render time and
// mirrored into the per-vantage lag gauge.
func (a *Aggregator) Vantages() []VantageInfo {
	nowNs := a.now().UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.vantages))
	for name := range a.vantages {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]VantageInfo, 0, len(names))
	for _, name := range names {
		vs := a.vantages[name]
		info := VantageInfo{
			Name:           name,
			Transports:     sortedSet(vs.transports),
			Observations:   vs.observations,
			Duplicates:     vs.duplicates,
			LastEventNs:    vs.lastEventNs,
			LastSeenUnixNs: vs.lastSeenNs,
			Cursor:         vs.cursor,
			LastErr:        vs.lastErr,
			SkewNs:         vs.skewNs,
			SkewSamples:    vs.skewSamples,
		}
		if vs.lastSeenNs > 0 && nowNs > vs.lastSeenNs {
			info.LagNs = nowNs - vs.lastSeenNs
			a.cfg.Metrics.Gauge(obs.LabelMetric(obs.MetricAggVantageLagNs, "vantage", name)).Set(info.LagNs)
		}
		if h := a.cfg.Health.Get("vantage:" + name); h != resil.Healthy {
			info.Health = h.String()
		}
		out = append(out, info)
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats answers a fleet stats query: the per-vantage analytics merged
// across the fleet (or one vantage). The collector merges sources in
// sorted name order with exactly associative and commutative sketch
// merges, so the document does not depend on observation arrival
// order across vantages.
func (a *Aggregator) Stats(q analytics.Query) (*loopscope.Stats, error) {
	return a.stats.Query(q)
}

// Latency renders the pipeline-latency document, optionally narrowed
// to one vantage and/or one segment.
func (a *Aggregator) Latency(vantage, segment string) *loopscope.FleetLatency {
	return a.latency.Snapshot(vantage, segment)
}

// KnownVantage reports whether the aggregator has state for name.
func (a *Aggregator) KnownVantage(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.vantages[name]
	return ok
}

// Counts returns totals for the health document.
func (a *Aggregator) Counts() (observations int64, duplicates int64, fleetLoops int, vantages int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, vs := range a.vantages {
		observations += vs.observations
		duplicates += vs.duplicates
	}
	return observations, duplicates, len(a.clusters), len(a.vantages)
}

// Cursor returns the pull transport's resume position for a vantage.
func (a *Aggregator) Cursor(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if vs := a.vantages[name]; vs != nil {
		return vs.cursor
	}
	return 0
}

// SetCursor records the pull transport's resume position. It only
// becomes durable at the next SaveCheckpoint; a stale cursor merely
// refetches events the seen-set then deduplicates.
func (a *Aggregator) SetCursor(name string, seq int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.vantageLocked(name).cursor = seq
}

// notePollResult records a poll round's outcome for the vantage
// listing and the health ladder.
func (a *Aggregator) notePollResult(name string, err error) {
	a.mu.Lock()
	vs := a.vantageLocked(name)
	if err != nil {
		vs.pollErrs++
		vs.lastErr = err.Error()
	} else {
		vs.lastErr = ""
	}
	a.mu.Unlock()
	if err != nil {
		a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricAggPollErrors, "vantage", name)).Inc()
		a.cfg.Health.Set("vantage:"+name, resil.Degraded)
	} else {
		a.cfg.Health.Set("vantage:"+name, resil.Healthy)
	}
}

// SaveCheckpoint persists the pull cursors (atomic temp+rename). A
// no-op without a checkpoint path.
func (a *Aggregator) SaveCheckpoint() error {
	if a.cfg.Checkpoint == "" {
		return nil
	}
	a.mu.Lock()
	cursors := make(map[string]int64, len(a.vantages))
	for name, vs := range a.vantages {
		if vs.cursor > 0 {
			cursors[name] = vs.cursor
		}
	}
	a.mu.Unlock()
	return saveCheckpoint(a.cfg.Checkpoint, cursors, a.now().UnixNano())
}

func intAbs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
