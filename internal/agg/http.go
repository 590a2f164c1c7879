package agg

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"loopscope/internal/analytics"
	"loopscope/internal/api"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/resil"
	"loopscope/pkg/loopscope"
)

// The aggregator's HTTP surface follows the daemon's /api/v1
// conventions exactly — same envelope, same error object, same strict
// query-parameter contract (internal/api owns all three) — so every
// v1 consumer, including pkg/loopscope and lsq, works against both
// tiers without special-casing.

// fleetLoopsMaxLimit caps one GET /api/v1/fleet/loops response.
const fleetLoopsMaxLimit = 1000

// ingestBodyMax bounds a webhook POST body. One loop event is under a
// kilobyte; a megabyte is paranoid headroom.
const ingestBodyMax = 1 << 20

// Handler returns the aggregator's HTTP API. Serve it with
// obs.StartHandler for the loopback-by-default bind policy.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", a.v1Health)
	mux.HandleFunc("GET /api/v1/fleet/loops", a.v1FleetLoops)
	mux.HandleFunc("GET /api/v1/fleet/vantages", a.v1FleetVantages)
	mux.HandleFunc("GET /api/v1/fleet/stats", a.v1FleetStats)
	mux.HandleFunc("GET /api/v1/fleet/latency", a.v1FleetLatency)
	mux.HandleFunc("GET /statusz", a.handleStatusz)
	mux.HandleFunc("POST /api/v1/ingest", a.v1Ingest)
	if a.cfg.Metrics != nil {
		mux.Handle("/", a.cfg.Metrics.Handler())
	}
	return mux
}

// v1Health serves GET /api/v1/health: liveness plus fleet totals.
func (a *Aggregator) v1Health(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	observations, duplicates, fleetLoops, vantages := a.Counts()
	status := "ok"
	if worst := a.cfg.Health.Worst(); worst != resil.Healthy {
		status = worst.String()
	}
	api.WriteOK(w, http.StatusOK, loopscope.FleetHealth{
		Duplicates:   duplicates,
		FleetLoops:   fleetLoops,
		Health:       a.cfg.Health.Snapshot(),
		Observations: observations,
		Status:       status,
		UptimeS:      int64(a.now().Sub(a.started).Seconds()),
		Vantages:     vantages,
	}, loopscope.Meta{})
}

// v1FleetLoops serves GET /api/v1/fleet/loops?limit=&prefix=: the
// deduplicated fleet loop set in founding order. limit keeps the
// newest N (by founding); prefix filters on the aggregated
// correlation prefix.
func (a *Aggregator) v1FleetLoops(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "limit", "prefix") {
		return
	}
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > fleetLoopsMaxLimit {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
				fmt.Sprintf("limit must be an integer in 1..%d, got %q", fleetLoopsMaxLimit, v))
			return
		}
		limit = parsed
	}
	loops := a.FleetLoops()
	if prefix := q.Get("prefix"); prefix != "" {
		kept := loops[:0]
		for _, fl := range loops {
			if fl.Prefix == prefix {
				kept = append(kept, fl)
			}
		}
		loops = kept
	}
	total := int64(len(loops))
	if limit > 0 && len(loops) > limit {
		loops = loops[len(loops)-limit:]
	}
	api.WriteOK(w, http.StatusOK, map[string]any{"loops": loops}, loopscope.Meta{Total: &total})
}

// v1FleetVantages serves GET /api/v1/fleet/vantages.
func (a *Aggregator) v1FleetVantages(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	api.WriteOK(w, http.StatusOK, map[string]any{"vantages": a.Vantages()}, loopscope.Meta{})
}

// v1FleetStats serves GET /api/v1/fleet/stats?window=&vantage=&metric=:
// the per-vantage analytics merged fleet-wide (the vantage param
// narrows to one daemon). Mirrors the daemon's /api/v1/stats error
// discipline: unknown metric and bad window are bad_param, an unknown
// vantage is not_found, and a known vantage that has sent no loops yet
// (a poll target, say) gets the empty document.
func (a *Aggregator) v1FleetStats(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "window", "vantage", "metric") {
		return
	}
	q := r.URL.Query()
	window, err := analytics.ParseWindow(q.Get("window"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, err.Error())
		return
	}
	vantage := q.Get("vantage")
	if vantage != "" && !a.KnownVantage(vantage) {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "unknown vantage "+vantage)
		return
	}
	st, err := a.Stats(analytics.Query{Window: window, Source: vantage, Metric: q.Get("metric")})
	if err != nil {
		if _, ok := err.(*analytics.ErrUnknownMetric); ok {
			api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, err.Error())
		} else {
			api.WriteError(w, http.StatusNotFound, api.ErrDisabled, err.Error())
		}
		return
	}
	api.WriteOK(w, http.StatusOK, st, loopscope.Meta{})
}

// v1FleetLatency serves GET /api/v1/fleet/latency?vantage=&segment=:
// the per-(pipeline segment, vantage) provenance latency table, in
// canonical segment order with vantages sorted within a segment. An
// unknown vantage is not_found (same discipline as fleet/stats); an
// unknown segment name is bad_param. The document is a deterministic
// render of journal-derived state, so two aggregators replaying the
// same journal serve byte-identical bodies.
func (a *Aggregator) v1FleetLatency(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "vantage", "segment") {
		return
	}
	q := r.URL.Query()
	vantage := q.Get("vantage")
	if vantage != "" && !a.KnownVantage(vantage) {
		api.WriteError(w, http.StatusNotFound, api.ErrNotFound, "unknown vantage "+vantage)
		return
	}
	segment := q.Get("segment")
	if segment != "" && provenance.SegmentRank(segment) == len(provenance.Segments) {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
			fmt.Sprintf("unknown segment %q (one of %v)", segment, provenance.Segments))
		return
	}
	api.WriteOK(w, http.StatusOK, a.Latency(vantage, segment), loopscope.Meta{})
}

// ingestResult is POST /api/v1/ingest's response body.
type ingestResult struct {
	ID string `json:"id"`
	// Accepted is false for a duplicate — already-seen deliveries are
	// a success for an at-least-once webhook sender, not an error.
	Accepted bool   `json:"accepted"`
	Vantage  string `json:"vantage"`
}

// v1Ingest is the push transport: the webhook target loopscoped's
// -webhook flag POSTs loop events at. The body is one loop event (the
// daemon's journal/webhook schema); the vantage attribution comes
// from the event's vantage stamp, falling back to its source name.
func (a *Aggregator) v1Ingest(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, ingestBodyMax+1))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, "reading body: "+err.Error())
		return
	}
	if len(body) > ingestBodyMax {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
			fmt.Sprintf("body exceeds %d bytes", ingestBodyMax))
		return
	}
	var ev loopscope.Event
	if err := json.Unmarshal(body, &ev); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, "body is not a loop event: "+err.Error())
		return
	}
	o := Observation{Transport: TransportPush, Event: ev}
	accepted, err := a.Ingest(o)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam, err.Error())
		return
	}
	vantage := ev.Vantage
	if vantage == "" {
		vantage = ev.Source
	}
	api.WriteOK(w, http.StatusOK, ingestResult{ID: ev.ID, Accepted: accepted, Vantage: vantage}, loopscope.Meta{})
}
