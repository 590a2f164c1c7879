// Package agg is loopscope's fleet tier: an aggregation daemon core
// that ingests loop events from many loopscoped instances (pushed
// over webhook POSTs or pulled through /api/v1/loops cursor
// pagination), deduplicates observations of the same underlying
// routing loop seen from different vantages, and emits cluster-level
// FleetLoop records carrying per-vantage evidence.
//
// Correlation model: a packet caught in a loop crosses every link of
// the cycle, so taps on one cycle see the same packets. A fleet loop
// is a connected component of observations, two of which are joined
// when
//   - their identity sketches (Event.Idents) share a value: they saw a
//     packet in common;
//   - they come from one vantage and share a base event ID: a
//     drain-truncated "<id>-t<end>" names the loop the completed
//     "<id>" names, though a partial sketch can miss the full one;
//   - either carries no identities (a journal line or a daemon that
//     predates them) and they share the fallback key: the /24, an
//     equal TTL delta and windows within 5 s.
//
// Only the third relation reads the vantages' trace clocks, so
// identity-carrying observations join however far apart those clocks
// are. A component renders from its reference member, the first by
// (start, vantage, event ID): its ID, prefix and TTL delta are that
// member's, its window the union of its members'.
//
// Determinism contract: the fleet loop set is a function of the
// observation set, whatever the arrival order — each relation is
// checked when the later of its two observations arrives, and nothing
// rendered depends on which arrived first. Observations are journaled
// (append-only JSONL, torn-tail repaired, deduplicated by
// vantage+event ID) before they mutate state, and a restart replays
// the journal — so kill -9 at any point reproduces the same FleetLoop
// set and the same fleet statistics the pre-crash process would have
// served. No wall-clock reading participates in clustering; arrival
// stamps ride in the journal itself.
//
// Fleet statistics reuse internal/analytics keyed by vantage: the
// per-vantage sketches merge with the collector's associative,
// commutative element-wise merges in sorted vantage order, so the
// fleet-wide stats document is byte-identical no matter which daemon
// reported first.
package agg

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"slices"
	"sort"
	"strings"
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

// The fallback key, for observations without identities.
const (
	// keyBits aggregates destination prefixes to /24: the paper's loop
	// identities are destination-prefix scoped, and /24 absorbs
	// per-host detail without fusing unrelated networks. A fleet
	// loop's prefix is aggregated the same way.
	keyBits = 24
	// keyWindow is the slack allowed between observation windows:
	// vantages tap different links of the same cycle, so their
	// first/last looping packets differ by propagation and
	// detection-horizon skew, not by much more than seconds. TTL
	// deltas must be equal: every tap on one cycle sees the same
	// decrement.
	keyWindow = int64(5 * time.Second)
)

// Transports an observation can arrive by.
const (
	TransportPush = "push"
	transportPull = "pull"
)

// Config configures an Aggregator.
type Config struct {
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
	fleetLoop   = loopscope.FleetLoop
	evidence    = loopscope.FleetEvidence
	vantageInfo = loopscope.FleetVantage
)

// member is one observation in the fleet loop graph. parent is its
// union-find link: a component's members lead to one root, which one
// depends on arrival order, so nothing rendered reads it.
type member struct {
	ev     evidence
	key    string // the destination prefix aggregated to keyBits
	parent int
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

	mu      sync.Mutex
	seen    map[string]struct{} // vantage\x00eventID
	members []member            // arrival order
	byIdent map[uint64]int      // stream identity -> a member carrying it
	byBase  map[string]int      // vantage\x00base event ID -> a member
	byKey   map[string][]int    // fallback key -> members
	// loops counts the components.
	loops    int
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
		byIdent:     make(map[uint64]int),
		byBase:      make(map[string]int),
		byKey:       make(map[string][]int),
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
// event ID is rejected with an error. Its identities are bounded to a
// daemon's sketch before they are journaled (see sketch).
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
	o.Event.Idents = sketch(o.Event.Idents)
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
		AtNs:       o.ReceivedAtNs, // a replayed journal keeps each in its own window
	})
	a.cfg.Metrics.Counter(obs.LabelMetric(obs.MetricAggObservations, "vantage", o.Vantage)).Inc()
	a.gFleetLoops.Set(int64(a.loops))
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

// correlateLocked adds o to the graph and joins it to every member
// it is related to (see the package comment). A relation is checked
// when the later of its two observations arrives, against the members
// themselves, so the components do not depend on arrival order.
func (a *Aggregator) correlateLocked(o Observation) {
	i := len(a.members)
	a.members = append(a.members, member{ev: evidenceOf(o), key: aggKey(o.Event.Prefix), parent: i})
	a.loops++
	for _, id := range o.Event.Idents {
		if j, ok := a.byIdent[id]; ok {
			a.union(i, j)
		} else {
			a.byIdent[id] = i
		}
	}
	base := o.Vantage + "\x00" + baseID(o.Event.ID)
	if j, ok := a.byBase[base]; ok {
		a.union(i, j)
	} else {
		a.byBase[base] = i
	}
	key := fmt.Sprintf("%s\x00%d", a.members[i].key, o.Event.TTLDelta)
	for _, j := range a.byKey[key] {
		m := &a.members[j].ev
		if (len(o.Event.Idents) == 0 || len(m.Idents) == 0) &&
			o.Event.StartNs <= m.EndNs+keyWindow && o.Event.EndNs >= m.StartNs-keyWindow {
			a.union(i, j)
		}
	}
	a.byKey[key] = append(a.byKey[key], i)
}

// find returns the root of member i's component, halving the path.
func (a *Aggregator) find(i int) int {
	for a.members[i].parent != i {
		a.members[i].parent = a.members[a.members[i].parent].parent
		i = a.members[i].parent
	}
	return i
}

// union joins the components of members i and j.
func (a *Aggregator) union(i, j int) {
	if ri, rj := a.find(i), a.find(j); ri != rj {
		a.members[max(ri, rj)].parent = min(ri, rj)
		a.loops--
	}
}

// sketch bounds an observation's identities to what a daemon sends:
// ascending, distinct, at most loopscope.MaxIdents of them, sorting
// ids in place. An ingest body may carry tens of thousands; the
// smallest are kept, so every identity a daemon's sketch of the same
// loop could share survives. Such a body is bounded, not rejected: a
// rejected event would stall the poller that keeps refetching it.
func sketch(ids []uint64) []uint64 {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) > loopscope.MaxIdents {
		ids = slices.Clone(ids[:loopscope.MaxIdents]) // not the body's whole array
	}
	return ids
}

// baseID strips the "-t<end>" suffix of a drain-truncated emission,
// leaving the ID of the loop's completed emission.
func baseID(id string) string {
	i := strings.LastIndex(id, "-t")
	if i < 0 || i+2 == len(id) || strings.Trim(id[i+2:], "0123456789abcdef") != "" {
		return id
	}
	return id[:i]
}

// aggKey masks a destination prefix to keyBits. An unparseable prefix
// correlates by its literal string — identical observations still
// cluster, unrelated ones cannot collide with real prefixes.
func aggKey(prefix string) string {
	p, err := routing.ParsePrefix(prefix)
	if err != nil {
		return prefix
	}
	if p.Bits > keyBits {
		p = routing.NewPrefix(p.Addr, keyBits)
	}
	return p.String()
}

// evidenceOf renders an observation's evidence row.
func evidenceOf(o Observation) evidence {
	return evidence{
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
		Idents:    o.Event.Idents,
		Prov:      o.Event.Prov,
	}
}

// fleetID derives a fleet loop's stable identity from its reference
// member, the same FNV-1a discipline the daemon's event IDs use: the
// same observations have the same reference member in any order, so
// the IDs survive restarts.
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

// FleetLoops renders the deduplicated loop set ordered by (start,
// ID), each loop's evidence by (start, vantage, event ID), vantage
// lists sorted: the same observations render the same document in any
// arrival order.
func (a *Aggregator) FleetLoops() []fleetLoop {
	a.mu.Lock()
	defer a.mu.Unlock()
	order := make([]int, len(a.members))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return evidenceCmp(&a.members[i].ev, &a.members[j].ev) })
	out := make([]fleetLoop, 0, a.loops)
	at := make(map[int]int, a.loops) // component root -> index in out
	for _, i := range order {
		m, root := &a.members[i], a.find(i)
		k, ok := at[root]
		if !ok {
			// The first member of a component in this order is its
			// reference member.
			k = len(out)
			at[root] = k
			out = append(out, fleetLoop{ID: fleetID(m.key, m.ev.Vantage, m.ev.EventID),
				Prefix: m.key, TTLDelta: m.ev.TTLDelta, StartNs: m.ev.StartNs, EndNs: m.ev.EndNs})
		}
		fl := &out[k]
		fl.EndNs = max(fl.EndNs, m.ev.EndNs)
		fl.DurationNs = fl.EndNs - fl.StartNs
		if !slices.Contains(fl.Vantages, m.ev.Vantage) {
			fl.Vantages = append(fl.Vantages, m.ev.Vantage)
		}
		fl.Evidence = append(fl.Evidence, m.ev)
		fl.Observations = len(fl.Evidence)
	}
	for _, fl := range out {
		slices.Sort(fl.Vantages)
	}
	slices.SortFunc(out, func(x, y fleetLoop) int {
		return cmp.Or(cmp.Compare(x.StartNs, y.StartNs), strings.Compare(x.ID, y.ID))
	})
	return out
}

// evidenceCmp orders evidence rows by (start, vantage, event ID).
func evidenceCmp(x, y *evidence) int {
	return cmp.Or(cmp.Compare(x.StartNs, y.StartNs), strings.Compare(x.Vantage, y.Vantage), strings.Compare(x.EventID, y.EventID))
}

// vantageList renders the per-vantage standing table, sorted by name.
// Lag is measured against the aggregator's clock at render time and
// mirrored into the per-vantage lag gauge.
func (a *Aggregator) vantageList() []vantageInfo {
	nowNs := a.now().UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.vantages))
	for name := range a.vantages {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]vantageInfo, 0, len(names))
	for _, name := range names {
		vs := a.vantages[name]
		info := vantageInfo{
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

// statsDoc answers a fleet stats query: the per-vantage analytics merged
// across the fleet (or one vantage). The collector merges sources in
// sorted name order with exactly associative and commutative sketch
// merges, so the document does not depend on observation arrival
// order across vantages.
func (a *Aggregator) statsDoc(q analytics.Query) (*loopscope.Stats, error) {
	return a.stats.Query(q)
}

// latencyDoc renders the pipeline-latency document, optionally narrowed
// to one vantage and/or one segment.
func (a *Aggregator) latencyDoc(vantage, segment string) *loopscope.FleetLatency {
	return a.latency.Snapshot(vantage, segment)
}

// knownVantage reports whether the aggregator has state for name.
func (a *Aggregator) knownVantage(name string) bool {
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
	return observations, duplicates, a.loops, len(a.vantages)
}

// cursorNow returns the pull transport's resume position for a vantage.
func (a *Aggregator) cursorNow(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if vs := a.vantages[name]; vs != nil {
		return vs.cursor
	}
	return 0
}

// setCursor records the pull transport's resume position. It only
// becomes durable at the next SaveCheckpoint; a stale cursor merely
// refetches events the seen-set then deduplicates.
func (a *Aggregator) setCursor(name string, seq int64) {
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
