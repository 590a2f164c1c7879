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

// The envelope, error object, and strict-parameter contract live in
// internal/api, shared with the fleet aggregator. Thin aliases keep
// the handlers below readable.
var (
	strictParams = api.StrictParams
	writeV1Error = api.WriteError
)

// v1 error codes (aliases of the shared protocol constants).
const (
	errBadParam = api.ErrBadParam
	errNotFound = api.ErrNotFound
	errDisabled = api.ErrDisabled
)

// writeV1 renders one enveloped v1 response, stamping the daemon's
// vantage identity into the meta block so aggregators can attribute
// polled data without transport heuristics.
func (d *Daemon) writeV1(w http.ResponseWriter, code int, data any, meta api.Meta) {
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
	writeV1Error(w, http.StatusNotFound, errNotFound,
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
	if !strictParams(w, r) {
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
	body := map[string]any{
		"status":  status,
		"uptimeS": int64(time.Since(d.started).Seconds()),
		"sources": len(d.sources),
		"records": records,
		"events":  d.ring.Total(),
	}
	if snap := d.health.Snapshot(); len(snap) > 0 {
		body["health"] = snap
	}
	d.writeV1(w, http.StatusOK, body, api.Meta{})
}

// v1LoopsMaxLimit caps one page of GET /api/v1/loops.
const v1LoopsMaxLimit = 1000

// v1LoopEvent is one event row of GET /api/v1/loops: the event plus
// its ring sequence number (the pagination coordinate).
type v1LoopEvent struct {
	Seq   int64 `json:"seq"`
	Event Event `json:"event"`
}

// v1Loops serves GET /api/v1/loops?limit=&cursor=&source= with cursor
// pagination: walk newest-to-oldest, follow meta.nextCursor until it
// disappears.
func (d *Daemon) v1Loops(w http.ResponseWriter, r *http.Request) {
	if !strictParams(w, r, "limit", "cursor", "source") {
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > v1LoopsMaxLimit {
			writeV1Error(w, http.StatusBadRequest, errBadParam,
				fmt.Sprintf("limit must be an integer in 1..%d, got %q", v1LoopsMaxLimit, v))
			return
		}
		limit = parsed
	}
	var cursor int64
	if v := q.Get("cursor"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil || parsed < 1 {
			writeV1Error(w, http.StatusBadRequest, errBadParam,
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
	events := make([]v1LoopEvent, len(page.Events))
	for i := range page.Events {
		events[i] = v1LoopEvent{Seq: page.Seqs[i], Event: page.Events[i]}
	}
	meta := api.Meta{Total: &page.Total}
	if page.Next > 0 {
		meta.NextCursor = &page.Next
	}
	d.writeV1(w, http.StatusOK, map[string]any{"events": events}, meta)
}

// v1Sources serves GET /api/v1/sources.
func (d *Daemon) v1Sources(w http.ResponseWriter, r *http.Request) {
	if !strictParams(w, r) {
		return
	}
	d.writeV1(w, http.StatusOK, map[string]any{"sources": d.sourceInfos()}, api.Meta{})
}

// SourceInfo is one source's live status as reported by /api/v1/sources.
type SourceInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Path     string `json:"path,omitempty"`
	Status   string `json:"status"`
	Link     string `json:"link,omitempty"`
	Records  int64  `json:"records"`
	Emitted  int    `json:"emitted"`
	LagBytes int64  `json:"lagBytes"`
	// Segment/Segments locate a dir source within its rotation
	// sequence (1-based; zero for other kinds), and LagSegments counts
	// rotated segments between it and the directory head.
	Segment     int    `json:"segment,omitempty"`
	Segments    int    `json:"segments,omitempty"`
	LagSegments int64  `json:"lagSegments,omitempty"`
	Restarts    int64  `json:"restarts"`
	LastErr     string `json:"lastError,omitempty"`
}

// sourceInfos renders every source, by name.
func (d *Daemon) sourceInfos() []SourceInfo {
	infos := make([]SourceInfo, 0, len(d.sources))
	for _, s := range d.sources {
		infos = append(infos, s.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// v1Trace serves GET /api/v1/trace (trail index) and
// GET /api/v1/trace/{id} (one sealed decision trail).
func (d *Daemon) v1Trace(w http.ResponseWriter, r *http.Request) {
	if !strictParams(w, r) {
		return
	}
	if d.cfg.Flight == nil {
		writeV1Error(w, http.StatusNotFound, errDisabled, "flight recorder disabled")
		return
	}
	id := r.PathValue("id")
	if id == "" {
		d.writeV1(w, http.StatusOK, map[string]any{"trails": d.cfg.Flight.TrailIDs()}, api.Meta{})
		return
	}
	tr := d.cfg.Flight.Trail(id)
	if tr == nil {
		writeV1Error(w, http.StatusNotFound, errNotFound, "unknown trail "+id)
		return
	}
	d.writeV1(w, http.StatusOK, tr, api.Meta{})
}

// v1Stats serves GET /api/v1/stats?window=&source=&metric=: the
// analytics subsystem's quantiles, histogram buckets, and top-K
// prefixes for the chosen window.
func (d *Daemon) v1Stats(w http.ResponseWriter, r *http.Request) {
	if !strictParams(w, r, "window", "source", "metric") {
		return
	}
	a := d.cfg.Analytics
	if a == nil {
		writeV1Error(w, http.StatusNotFound, errDisabled, "analytics disabled")
		return
	}
	q := r.URL.Query()
	window, err := analytics.ParseWindow(q.Get("window"))
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, errBadParam, err.Error())
		return
	}
	src := q.Get("source")
	if !d.checkSourceParam(w, src) {
		return
	}
	st, err := a.Query(analytics.Query{Window: window, Source: src, Metric: q.Get("metric")})
	if err != nil {
		switch err.(type) {
		case *analytics.ErrUnknownMetric:
			writeV1Error(w, http.StatusBadRequest, errBadParam, err.Error())
		case *analytics.ErrUnknownSource:
			// The source exists but has recorded nothing yet: an empty
			// stats document, not an error.
			d.writeV1(w, http.StatusOK, analytics.EmptyStats(q.Get("window"), src), api.Meta{})
		default:
			writeV1Error(w, http.StatusNotFound, errDisabled, err.Error())
		}
		return
	}
	d.writeV1(w, http.StatusOK, st, api.Meta{})
}
