package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/api"
	"loopscope/internal/resil"
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
	mux.HandleFunc("GET /api/v1/statusz", d.handleStatusz)
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

// sourceNames returns the configured source names (the valid values of
// every ?source= parameter).
func (d *Daemon) sourceNames() []string {
	names := make([]string, 0, len(d.sources))
	for _, s := range d.sources {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

// checkSourceParam validates an optional ?source= against the
// configured sources; a well-formed but unknown name is a 404.
func (d *Daemon) checkSourceParam(w http.ResponseWriter, src string) bool {
	if src == "" {
		return true
	}
	for _, s := range d.sources {
		if s.name == src {
			return true
		}
	}
	api.WriteError(w, http.StatusNotFound, api.ErrNotFound,
		fmt.Sprintf("unknown source %q (have: %s)", src, strings.Join(d.sourceNames(), ", ")))
	return false
}

// v1Health serves GET /api/v1/health: liveness, coarse progress, and
// per-component health. "status" is the worst component state ("ok"
// only while every component is healthy), so load balancers and
// operators read one field; the "health" map names the culprits. The
// response stays 200 even when degraded — the process is alive and
// self-protecting; killing it would only lose state.
func (d *Daemon) v1Health(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	var records int64
	for _, s := range d.sources {
		s.mu.Lock()
		records += s.cp.Records
		s.mu.Unlock()
	}
	status := "ok"
	if worst := d.health.Worst(); worst != resil.Healthy {
		status = worst.String()
	}
	d.writeV1(w, http.StatusOK, loopscope.Health{
		Events:  d.ring.Total(),
		Health:  d.health.Snapshot(),
		Records: records,
		Sources: len(d.sources),
		Status:  status,
		UptimeS: int64(time.Since(d.started).Seconds()),
	}, loopscope.Meta{})
}

// v1LoopsMaxLimit caps one page of GET /api/v1/loops.
const v1LoopsMaxLimit = 1000

// v1Loops serves GET /api/v1/loops?limit=&cursor=&source= with cursor
// pagination: walk newest-to-oldest, follow meta.nextCursor until it
// disappears.
func (d *Daemon) v1Loops(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "limit", "cursor", "source") {
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > v1LoopsMaxLimit {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
				fmt.Sprintf("limit must be an integer in 1..%d, got %q", v1LoopsMaxLimit, v))
			return
		}
		limit = parsed
	}
	var cursor int64
	if v := q.Get("cursor"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil || parsed < 1 {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
				fmt.Sprintf("cursor must be a positive integer, got %q", v))
			return
		}
		cursor = parsed
	}
	src := q.Get("source")
	if !d.checkSourceParam(w, src) {
		return
	}
	var keep func(Event) bool
	if src != "" {
		keep = func(e Event) bool { return e.Source == src }
	}
	page := d.ring.PageAfter(cursor, limit, keep)
	events := make([]loopscope.LoopEvent, len(page.Events))
	for i := range page.Events {
		events[i] = loopscope.LoopEvent{Seq: page.Seqs[i], Event: page.Events[i]}
	}
	meta := loopscope.Meta{Total: &page.Total}
	if page.Next > 0 {
		meta.NextCursor = &page.Next
	}
	d.writeV1(w, http.StatusOK, map[string]any{"events": events}, meta)
}

// v1Sources serves GET /api/v1/sources.
func (d *Daemon) v1Sources(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	d.writeV1(w, http.StatusOK, map[string]any{"sources": d.sourceInfos()}, loopscope.Meta{})
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
		d.writeV1(w, http.StatusOK, map[string]any{"trails": d.cfg.Flight.TrailIDs()}, loopscope.Meta{})
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
	a := d.cfg.Analytics
	if a == nil {
		api.WriteError(w, http.StatusNotFound, api.ErrDisabled, "analytics disabled")
		return
	}
	q := r.URL.Query()
	window, err := analytics.ParseWindow(q.Get("window"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, err.Error())
		return
	}
	src := q.Get("source")
	if !d.checkSourceParam(w, src) {
		return
	}
	st, err := a.Query(analytics.Query{Window: window, Source: src, Metric: q.Get("metric")})
	if err != nil {
		if _, ok := err.(*analytics.ErrUnknownMetric); ok {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, err.Error())
		} else {
			api.WriteError(w, http.StatusNotFound, api.ErrDisabled, err.Error())
		}
		return
	}
	d.writeV1(w, http.StatusOK, st, loopscope.Meta{})
}
