package serve

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/api"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/pkg/loopscope"
)

// The daemon's HTTP surface is versioned. Canonical endpoints live
// under /api/v1 and share one JSON envelope:
//
//	{"data": …, "meta": {"api": "v1", …}}
//
// and one error shape with a correct status code:
//
//	{"error": {"code": "bad_param", "message": "…"}}
//
// There are no other API paths: the pre-v1 aliases (/healthz,
// /api/loops, /api/sources, /api/trace/, /statusz) are gone and answer
// 404.

// Handler returns the daemon's HTTP API — the full surface is the
// seven patterns below — with the obs registry's endpoints (/metrics,
// /debug/vars, /debug/pprof) mounted alongside it when a registry is
// configured. Serve it with obs.StartHandler for the
// loopback-by-default policy.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", d.v1Health)
	mux.HandleFunc("GET /api/v1/loops", d.v1Loops)
	mux.HandleFunc("GET /api/v1/sources", d.v1Sources)
	mux.HandleFunc("GET /api/v1/trace", d.v1Trace)
	mux.HandleFunc("GET /api/v1/trace/{id}", d.v1Trace)
	mux.HandleFunc("GET /api/v1/stats", d.v1Stats)
	mux.HandleFunc("GET /api/v1/statusz", d.v1Statusz)
	if d.cfg.Metrics != nil {
		mux.Handle("/", d.cfg.Metrics.Handler())
	}
	return mux
}

// writeV1 renders one enveloped v1 response, stamping the daemon's
// vantage identity into the meta block so aggregators can attribute
// polled data without transport heuristics.
func (d *Daemon) writeV1(w http.ResponseWriter, code int, data any, meta loopscope.Meta) {
	meta.Vantage = d.cfg.Vantage
	api.WriteOK(w, code, data, meta)
}

// sourceParam is what ?source= may name: a configured source.
func (d *Daemon) sourceParam() api.Names {
	return api.Names{Param: "source", Known: func(name string) bool {
		return slices.ContainsFunc(d.sources, func(s *sourceState) bool { return s.name == name })
	}, List: func() []string {
		names := make([]string, 0, len(d.sources))
		for _, s := range d.sources {
			names = append(names, s.name)
		}
		sort.Strings(names)
		return names
	}}
}

// v1Health serves GET /api/v1/health: liveness, coarse progress, and
// per-component health. "status" is the worst component state ("ok"
// only while every component is healthy), so load balancers and
// operators read one field; the "health" map names the culprits. The
// response stays 200 even when degraded — the process is alive and
// self-protecting; killing it would only lose state.
func (d *Daemon) v1Health(w http.ResponseWriter, r *http.Request) {
	if api.StrictParams(w, r) {
		d.writeV1(w, http.StatusOK, d.healthDoc(), loopscope.Meta{})
	}
}

// healthDoc is the health document, the status page's summary too.
func (d *Daemon) healthDoc() loopscope.Health {
	var records int64
	for _, s := range d.sourceInfos() {
		records += s.Records
	}
	return loopscope.Health{
		Events:  d.ring.Total(),
		Health:  d.health.Snapshot(),
		Records: records,
		Sources: len(d.sources),
		Status:  d.health.Status(),
		UptimeS: int64(time.Since(d.started).Seconds()),
	}
}

// v1Loops serves GET /api/v1/loops?limit=&cursor=&source= with cursor
// pagination: walk newest-to-oldest, follow meta.nextCursor until it
// disappears.
func (d *Daemon) v1Loops(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "limit", "cursor", "source") {
		return
	}
	limit, ok := api.Limit(w, r, 100)
	if !ok {
		return
	}
	var cursor int64
	if v := r.URL.Query().Get("cursor"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil || parsed < 1 {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
				fmt.Sprintf("cursor must be a positive integer, got %q", v))
			return
		}
		cursor = parsed
	}
	src, ok := d.sourceParam().Get(w, r)
	if !ok {
		return
	}
	var keep func(Event) bool
	if src != "" {
		keep = func(e Event) bool { return e.Source == src }
	}
	page := d.ring.PageAfter(cursor, limit, keep)
	meta := loopscope.Meta{Total: &page.Total}
	if page.Next > 0 {
		meta.NextCursor = &page.Next
	}
	d.writeV1(w, http.StatusOK, loopscope.EventList{Events: page.Events}, meta)
}

// v1Sources serves GET /api/v1/sources.
func (d *Daemon) v1Sources(w http.ResponseWriter, r *http.Request) {
	if api.StrictParams(w, r) {
		d.writeV1(w, http.StatusOK, loopscope.SourceList{Sources: d.sourceInfos()}, loopscope.Meta{})
	}
}

// sourceInfos renders every source, by name.
func (d *Daemon) sourceInfos() []loopscope.Source {
	infos := make([]loopscope.Source, 0, len(d.sources))
	for _, s := range d.sources {
		infos = append(infos, s.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// v1Trace serves GET /api/v1/trace (trail index) and
// GET /api/v1/trace/{id} (one sealed decision trail).
func (d *Daemon) v1Trace(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	if d.cfg.Flight == nil {
		api.WriteError(w, http.StatusNotFound, api.ErrDisabled, "flight recorder disabled")
		return
	}
	id := r.PathValue("id")
	if id == "" {
		d.writeV1(w, http.StatusOK, loopscope.TrailList{Trails: d.cfg.Flight.TrailIDs()}, loopscope.Meta{})
		return
	}
	tr := d.cfg.Flight.Trail(id)
	if tr == nil {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "unknown trail "+id)
		return
	}
	d.writeV1(w, http.StatusOK, tr, loopscope.Meta{})
}

// v1Stats serves GET /api/v1/stats?window=&source=&metric=: the
// analytics subsystem's quantiles, histogram buckets, and top-K
// prefixes for the chosen window.
func (d *Daemon) v1Stats(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "window", "source", "metric") {
		return
	}
	if d.cfg.Analytics == nil {
		api.WriteError(w, http.StatusNotFound, api.ErrDisabled, "analytics disabled")
		return
	}
	if st := api.Stats(w, r, d.sourceParam(), d.cfg.Analytics.Query); st != nil {
		d.writeV1(w, http.StatusOK, st, loopscope.Meta{})
	}
}

// v1Statusz serves the human status page, GET /api/v1/statusz.
func (d *Daemon) v1Statusz(w http.ResponseWriter, _ *http.Request) {
	x := statusExtras{checkpointNs: d.cpLastNs.Load(), flight: d.cfg.Flight, logCounts: map[string]int64{}}
	if d.cfg.Metrics != nil {
		prefix := obs.MetricLogMessages + `{level="`
		for name, v := range d.cfg.Metrics.Snapshot().Counters {
			if level, ok := strings.CutPrefix(name, prefix); ok {
				x.logCounts[strings.TrimSuffix(level, `"}`)] = v
			}
		}
	}
	// The cumulative query fails only with analytics off, which a nil
	// document shows.
	st, _ := d.cfg.Analytics.Query(analytics.Query{})
	page := statusPage(d.healthDoc(), d.sourceInfos(), d.ring.PageAfter(0, 20, nil), st, x)
	if err := api.WritePage(w, page); err != nil {
		d.log.Warn("statusz render failed", "err", err)
	}
}

// statusExtras are what the daemon's status page shows beyond its API
// documents.
type statusExtras struct {
	checkpointNs int64            // the last checkpoint's wall clock; zero before the first
	flight       *flight.Recorder // nil when off
	logCounts    map[string]int64 // log messages by level
}

// statusPage builds the daemon's status page from its health, sources
// and stats documents (st nil with analytics off), the ring's newest
// events and the extras. One glance answers "is it alive, is it keeping
// up, what has it found, and can I see why", the last through each
// event's link into /api/v1/trace.
func statusPage(h loopscope.Health, sources []loopscope.Source, recent Page, st *loopscope.Stats, x statusExtras) api.Page {
	summary := fmt.Sprintf("uptime %v", time.Duration(h.UptimeS)*time.Second)
	if x.checkpointNs > 0 {
		summary += fmt.Sprintf(" · last checkpoint %v ago", time.Since(time.Unix(0, x.checkpointNs)).Round(time.Millisecond))
	}
	p := api.Page{Title: "loopscoped", Summary: summary + fmt.Sprintf(" · %d events (%d in ring)", h.Events, recent.Held)}
	p.Sections = api.HealthSection(h.Health)

	src := api.Section{Heading: "sources", Columns: api.Columns("name", "kind", "status", "records#", "emitted#", "lag#", "segment", "restarts#", "last error")}
	for _, s := range sources {
		lag, seg := fmt.Sprintf("%d B", s.LagBytes), ""
		if s.LagSegments != 0 {
			lag += fmt.Sprintf(" +%d seg", s.LagSegments)
		}
		if s.Segments != 0 {
			seg = fmt.Sprintf("%d/%d", s.Segment, s.Segments)
		}
		src.Rows = append(src.Rows, api.Row(s.Name, s.Kind, s.Status, s.Records, s.Emitted, lag, seg, s.Restarts, s.LastErr))
	}

	loops := api.Section{Heading: "recent loops", Columns: api.Columns("id", "source", "prefix", "streams#", "replicas#", "duration#", "detect→journal#", "truncated")}
	for _, le := range recent.Events {
		e := le.Event
		id := api.Cell{Text: e.ID}
		if x.flight != nil {
			id.Href = "/api/v1/trace/" + e.ID
		}
		// The ring copy carries the journaled stamp (publish stamps it
		// before the ring sees the event), so detect→journal is the
		// widest same-process pipeline segment available here.
		var pipeline, truncated string
		if p := e.Prov; p != nil && p.DetectedNs > 0 && p.JournaledNs > 0 {
			pipeline = api.Duration(p.JournaledNs - p.DetectedNs)
		}
		if e.Truncated {
			truncated = "yes"
		}
		loops.Rows = append(loops.Rows, api.Row(id, e.Source, e.Prefix, e.Streams, e.Replicas,
			time.Duration(e.DurationNs).Round(time.Millisecond), pipeline, truncated))
	}
	p.Sections = append(p.Sections, src, loops)

	if st != nil {
		// The cumulative view over every metric, nanosecond metrics as
		// durations and counts as integers, and the ten top prefixes.
		metrics := api.Section{Heading: fmt.Sprintf("analytics (all time, α=%v)", st.ErrorBound),
			Columns: api.Columns("metric", "count#", "p50#", "p90#", "p99#", "distribution")}
		for _, name := range analytics.Metrics {
			ms := st.Metrics[name]
			q := func(k string) string {
				if name == analytics.MetricDuration || name == analytics.MetricEscapeDelay {
					return api.Duration(ms.Quantiles[k])
				}
				return strconv.FormatInt(ms.Quantiles[k], 10)
			}
			metrics.Rows = append(metrics.Rows, api.Row(name, ms.Count, q("p50"), q("p90"), q("p99"), analytics.Spark(ms.Buckets)))
		}
		p.Sections = append(p.Sections, metrics)
		if len(st.TopPrefixes) > 0 {
			top := api.Section{Heading: "top looping prefixes", Columns: api.Columns("prefix", "loops#", "±err#")}
			for _, tp := range st.TopPrefixes[:min(len(st.TopPrefixes), 10)] {
				top.Rows = append(top.Rows, api.Row(tp.Key, tp.Count, tp.Err))
			}
			p.Sections = append(p.Sections, top)
		}
	}
	if x.flight != nil {
		f := x.flight.Stats()
		p.Sections = append(p.Sections, api.Section{Heading: "flight recorder",
			Note: fmt.Sprintf("%d events recorded · %d trails sealed · %d retained (%d evicted) · %d shards", f.Events, f.Sealed, f.Trails, f.Evicted, f.Shards)})
	}
	p.Sections = append(p.Sections, api.MapSection("log messages", api.Columns("level", "messages#"), x.logCounts)...)
	return p
}
