package analytics

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"loopscope/internal/stats"
	"loopscope/pkg/loopscope"
)

// Metric names the stats API accepts. Sketch-backed metrics answer
// quantiles within SketchAlpha relative error; IntHist-backed metrics
// are exact.
const (
	MetricDuration    = "duration"     // loop duration, ns (Sketch)
	MetricTTLDelta    = "ttl_delta"    // dominant TTL decrement (IntHist, exact)
	MetricStreams     = "streams"      // replica streams per loop (IntHist, exact)
	MetricReplicas    = "replicas"     // replica packets per loop (Sketch)
	MetricEscapeDelay = "escape_delay" // time an escaped stream was trapped, ns (Sketch)
)

// Metrics lists every metric name, in presentation order.
var Metrics = []string{MetricDuration, MetricTTLDelta, MetricStreams, MetricReplicas, MetricEscapeDelay}

// LoopObs is one finalized loop, reduced to what the analytics layer
// records. Both feeding paths build it: the daemon from a published
// serve event (ID set, so crash-replay duplicates dedup), offline
// loopdetect from a core.Result (no IDs needed — a batch run has no
// duplicates).
type LoopObs struct {
	// ID deduplicates at-least-once redelivery; empty skips dedup.
	ID string
	// Prefix feeds the per-prefix top-K.
	Prefix string
	// DurationNs is the loop's observable lifetime.
	DurationNs int64
	// TTLDelta is the dominant TTL decrement (loop length in routers).
	TTLDelta int
	// Streams is the number of merged replica streams.
	Streams int
	// Replicas is the total replica packets across the loop's streams.
	Replicas int
	// EscapeDelaysNs holds, per escaped stream, how long the loop held
	// the packet before it got out.
	EscapeDelaysNs []int64
	// AtNs is the wall-clock time (Unix ns) whose window the loop counts
	// in: the aggregator's receive stamp, which its journal replay
	// keeps. Zero is the collector's clock at RecordLoop.
	AtNs int64
}

// tier is one time-partition granularity: ring of `keep` segments of
// `span` each.
type tier struct {
	span time.Duration
	keep int
}

// tiers are the window granularities, finest first: two hours of
// minutes, two days of hours, two weeks of days. Queries resolve on
// the finest tier whose retention covers the asked-for window.
var tiers = []tier{
	{time.Minute, 120},
	{time.Hour, 48},
	{24 * time.Hour, 14},
}

// MaxWindow is the largest queryable window; longer horizons use the
// cumulative "all" view.
const MaxWindow = 14 * 24 * time.Hour

// topKCap bounds the per-prefix heavy-hitter summaries. 64 prefixes
// per window segment is far past what a statusz table or a NOC
// dashboard renders.
const topKCap = 64

// metricSet is one window's worth of sketches: every metric plus the
// prefix top-K. It is the unit of merging.
type metricSet struct {
	Duration    Sketch        `json:"duration"`
	TTLDelta    stats.IntHist `json:"ttlDelta"`
	Streams     stats.IntHist `json:"streams"`
	Replicas    Sketch        `json:"replicas"`
	EscapeDelay Sketch        `json:"escapeDelay"`
	Prefixes    *TopK         `json:"prefixes,omitempty"`
	Loops       uint64        `json:"loops"`
}

// record folds one loop observation in.
func (m *metricSet) record(o LoopObs) {
	m.Loops++
	m.Duration.Add(o.DurationNs)
	m.TTLDelta.Add(o.TTLDelta)
	m.Streams.Add(o.Streams)
	m.Replicas.Add(int64(o.Replicas))
	for _, d := range o.EscapeDelaysNs {
		m.EscapeDelay.Add(d)
	}
	if o.Prefix != "" {
		if m.Prefixes == nil {
			m.Prefixes = NewTopK(topKCap)
		}
		m.Prefixes.Add(o.Prefix)
	}
}

// merge folds other into m.
func (m *metricSet) merge(other *metricSet) {
	if other == nil {
		return
	}
	m.Loops += other.Loops
	m.Duration.Merge(&other.Duration)
	m.TTLDelta.Merge(&other.TTLDelta)
	m.Streams.Merge(&other.Streams)
	m.Replicas.Merge(&other.Replicas)
	m.EscapeDelay.Merge(&other.EscapeDelay)
	if other.Prefixes != nil {
		if m.Prefixes == nil {
			m.Prefixes = NewTopK(topKCap)
		}
		m.Prefixes.Merge(other.Prefixes)
	}
}

// validate checks a decoded metricSet.
func (m *metricSet) validate() error {
	for _, err := range []error{
		m.Duration.validate(), m.TTLDelta.Validate(), m.Streams.Validate(),
		m.Replicas.validate(), m.EscapeDelay.validate(),
	} {
		if err != nil {
			return err
		}
	}
	if m.Prefixes != nil {
		return m.Prefixes.validate()
	}
	return nil
}

// segment is one time partition of one tier: observations whose ingest
// time fell in [Start, Start+span).
type segment struct {
	// StartUnix is the segment's aligned start, in unix seconds.
	StartUnix int64      `json:"start"`
	MS        *metricSet `json:"ms"`
}

// sourceWindows is one source's full window state: per-tier segment
// rings plus the cumulative view.
type sourceWindows struct {
	Tiers [][]segment `json:"tiers"`
	All   *metricSet  `json:"all"`
}

func newSourceWindows() *sourceWindows {
	return &sourceWindows{Tiers: make([][]segment, len(tiers)), All: &metricSet{}}
}

// seenCap bounds the Collector's duplicate-suppression ring. It must
// exceed the number of events a crash window can replay (events since
// the last snapshot, or one dir segment's worth); 64k IDs is hours of
// heavy looping and ~4 MB, persisted with the snapshot.
const seenCap = 65536

// Options configures a Collector.
type Options struct {
	// Now supplies the ingest clock; nil uses time.Now. Tests pin it.
	Now func() time.Time
	// OnIngest and OnDedup, when non-nil, fire once per recorded and
	// per suppressed observation — the daemon bridges them into its
	// metrics registry without this package importing it.
	OnIngest func()
	OnDedup  func()
}

// Collector is the streaming analytics state: per-source window tiers
// of mergeable sketches, a cumulative view, and a bounded
// recently-seen event-ID ring that makes ingestion idempotent across
// the daemon's at-least-once redelivery. Safe for concurrent use.
type Collector struct {
	mu       sync.Mutex
	now      func() time.Time
	onIngest func()
	onDedup  func()
	sources  map[string]*sourceWindows
	seen     map[string]struct{}
	seenFIFO []string
	ingested uint64
	deduped  uint64
}

// NewCollector returns an empty Collector.
func NewCollector(opts Options) *Collector {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Collector{
		now:      now,
		onIngest: opts.OnIngest,
		onDedup:  opts.OnDedup,
		sources:  make(map[string]*sourceWindows),
		seen:     make(map[string]struct{}),
	}
}

// RecordLoop ingests one finalized loop for source. A LoopObs whose ID
// was recently ingested is dropped (counted), which is what keeps
// checkpoint-resume replays and dir-source re-derivations from double
// counting. Nil-safe: a nil Collector ignores the call, so callers
// can leave analytics unwired without a branch.
func (c *Collector) RecordLoop(source string, o LoopObs) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.ID != "" {
		if _, dup := c.seen[o.ID]; dup {
			c.deduped++
			if c.onDedup != nil {
				c.onDedup()
			}
			return
		}
		c.seen[o.ID] = struct{}{}
		c.seenFIFO = append(c.seenFIFO, o.ID)
		if len(c.seenFIFO) > seenCap {
			delete(c.seen, c.seenFIFO[0])
			c.seenFIFO = c.seenFIFO[1:]
		}
	}
	c.ingested++
	if c.onIngest != nil {
		c.onIngest()
	}
	sw := c.sources[source]
	if sw == nil {
		sw = newSourceWindows()
		c.sources[source] = sw
	}
	at := c.now().Unix()
	if o.AtNs != 0 {
		at = time.Unix(0, o.AtNs).Unix()
	}
	for ti, t := range tiers {
		spanSec := int64(t.span / time.Second)
		start := at - at%spanSec
		// Almost always the newest segment; a replayed or late loop may
		// belong to an older one, or to one the tier no longer keeps.
		segs := sw.Tiers[ti]
		i := sort.Search(len(segs), func(i int) bool { return segs[i].StartUnix >= start })
		if i == len(segs) || segs[i].StartUnix != start {
			segs = slices.Insert(segs, i, segment{StartUnix: start, MS: &metricSet{}})
			if cut := len(segs) - t.keep; cut > 0 {
				segs, i = segs[cut:], i-cut
			}
			sw.Tiers[ti] = segs
		}
		if i >= 0 {
			segs[i].MS.record(o)
		}
	}
	sw.All.record(o)
}

// Counts reports how many loops were ingested and how many were
// suppressed as duplicates.
func (c *Collector) Counts() (ingested, deduped uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingested, c.deduped
}

// ParseWindow parses a stats window parameter: "all" (or empty) means
// the cumulative view; otherwise a Go duration between one minute and
// MaxWindow.
func ParseWindow(s string) (time.Duration, error) {
	if s == "" || s == "all" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad window %q: want a duration like 5m, 1h, 24h, or \"all\"", s)
	}
	if d < time.Minute || d > MaxWindow {
		return 0, fmt.Errorf("window %q out of range: want 1m..%s or \"all\"", s, MaxWindow)
	}
	return d, nil
}

// Query describes one stats request.
type Query struct {
	// Window is the lookback horizon; 0 means cumulative ("all").
	Window time.Duration
	// Source restricts to one source; empty merges all sources.
	Source string
	// Metric restricts to one metric; empty returns all.
	Metric string
}

// quantilePoints are the quantiles every stats row reports.
var quantilePoints = []struct {
	name string
	q    float64
}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}}

// ErrUnknownMetric reports a metric name outside Metrics.
type ErrUnknownMetric struct{ Name string }

func (e *ErrUnknownMetric) Error() string {
	return fmt.Sprintf("unknown metric %q: want one of %v", e.Name, Metrics)
}

// Query answers one stats request by merging the relevant window
// segments (and sources) into a scratch metricSet — the stored
// segments are never mutated by reads. A source with nothing recorded
// merges nothing and gets the empty document, so which names exist is
// the caller's to decide.
func (c *Collector) Query(q Query) (*loopscope.Stats, error) {
	if c == nil {
		return nil, fmt.Errorf("analytics disabled")
	}
	if q.Metric != "" && !validMetric(q.Metric) {
		return nil, &ErrUnknownMetric{Name: q.Metric}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	var sws []*sourceWindows
	if q.Source != "" {
		if sw := c.sources[q.Source]; sw != nil {
			sws = []*sourceWindows{sw}
		}
	} else {
		for _, name := range c.sourceNamesLocked() {
			sws = append(sws, c.sources[name])
		}
	}

	merged := &metricSet{}
	windowName := "all"
	if q.Window <= 0 {
		for _, sw := range sws {
			merged.merge(sw.All)
		}
	} else {
		windowName = q.Window.String()
		ti := tierFor(q.Window)
		cutoff := c.now().Add(-q.Window).Unix()
		spanSec := int64(tiers[ti].span / time.Second)
		for _, sw := range sws {
			for i := range sw.Tiers[ti] {
				seg := &sw.Tiers[ti][i]
				// A segment overlaps the window when it ends after the
				// cutoff; boundary segments are included whole (windows
				// round outward to segment edges — documented).
				if seg.StartUnix+spanSec > cutoff {
					merged.merge(seg.MS)
				}
			}
		}
	}

	st := &loopscope.Stats{
		Window:      windowName,
		Source:      q.Source,
		Loops:       merged.Loops,
		ErrorBound:  SketchAlpha,
		Metrics:     make(map[string]loopscope.MetricStats),
		TopPrefixes: []loopscope.TopPrefix{},
	}
	if merged.Prefixes != nil {
		st.TopPrefixes = merged.Prefixes.Top()
	}
	for _, name := range Metrics {
		if q.Metric != "" && q.Metric != name {
			continue
		}
		d, kind := merged.metric(name)
		ms := summarize(d)
		ms.Metric, ms.Kind = name, kind
		st.Metrics[name] = ms
	}
	return st, nil
}

// sourceNamesLocked returns source names sorted, under c.mu — sorted
// iteration keeps merges deterministic (they would be correct in any
// order; determinism makes tests and snapshots byte-stable).
func (c *Collector) sourceNamesLocked() []string {
	names := make([]string, 0, len(c.sources))
	for name := range c.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tierFor picks the finest tier whose retention covers the window.
func tierFor(w time.Duration) int {
	for i, t := range tiers {
		if w <= t.span*time.Duration(t.keep) {
			return i
		}
	}
	return len(tiers) - 1
}

// validMetric reports whether name is a known metric.
func validMetric(name string) bool {
	for _, m := range Metrics {
		if m == name {
			return true
		}
	}
	return false
}

// metric returns the named distribution of m and its kind: "sketch"
// or "exact".
func (m *metricSet) metric(name string) (distribution, string) {
	switch name {
	case MetricDuration:
		return &m.Duration, "sketch"
	case MetricTTLDelta:
		return &m.TTLDelta, "exact"
	case MetricStreams:
		return &m.Streams, "exact"
	case MetricReplicas:
		return &m.Replicas, "sketch"
	}
	return &m.EscapeDelay, "sketch"
}

// distribution is what a stats row reads: a Sketch or a stats.IntHist.
type distribution interface {
	Count() uint64
	Mean() float64
	MinMax() (int64, int64)
	Quantile(q float64) int64
	Buckets() []stats.Bucket
}

// summarize derives the count, mean, extremes, quantiles and buckets
// that every stats row reports — the metric rows of Query and the
// latency rows of LatencyStore.Snapshot — leaving Metric and Kind
// unset.
func summarize(d distribution) loopscope.MetricStats {
	buckets := d.Buckets()
	ms := loopscope.MetricStats{
		Count:     d.Count(),
		Mean:      d.Mean(),
		Quantiles: make(map[string]int64, len(quantilePoints)),
		Buckets:   make([]loopscope.Bucket, len(buckets)),
	}
	for i, b := range buckets {
		ms.Buckets[i] = loopscope.Bucket(b)
	}
	ms.Min, ms.Max = d.MinMax()
	for _, qp := range quantilePoints {
		ms.Quantiles[qp.name] = d.Quantile(qp.q)
	}
	return ms
}

// sparkRunes are the sparkline levels, lowest first.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark draws the bucket counts as a one-line sparkline scaled to the
// largest count, "" when there is none.
func Spark(buckets []loopscope.Bucket) string {
	var max uint64
	for _, b := range buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	if max == 0 {
		return ""
	}
	out := make([]rune, len(buckets))
	for i, b := range buckets {
		out[i] = sparkRunes[int(b.Count*uint64(len(sparkRunes)-1)/max)]
	}
	return string(out)
}
