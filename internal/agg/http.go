package agg

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

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
	mux.HandleFunc("GET /api/v1/statusz", a.v1Statusz)
	mux.HandleFunc("POST /api/v1/ingest", a.v1Ingest)
	if a.cfg.Metrics != nil {
		mux.Handle("/", a.cfg.Metrics.Handler())
	}
	return mux
}

// v1Health serves GET /api/v1/health: liveness plus fleet totals.
func (a *Aggregator) v1Health(w http.ResponseWriter, r *http.Request) {
	if api.StrictParams(w, r) {
		api.WriteOK(w, http.StatusOK, a.healthDoc(), loopscope.Meta{})
	}
}

// healthDoc is the health document, the status page's summary too.
func (a *Aggregator) healthDoc() loopscope.FleetHealth {
	observations, duplicates, fleetLoops, vantages := a.Counts()
	return loopscope.FleetHealth{
		Duplicates:   duplicates,
		FleetLoops:   fleetLoops,
		Health:       a.cfg.Health.Snapshot(),
		Observations: observations,
		Status:       a.cfg.Health.Status(),
		UptimeS:      int64(a.now().Sub(a.started).Seconds()),
		Vantages:     vantages,
	}
}

// vantageParam is what ?vantage= may name: a vantage the aggregator
// has state for.
func (a *Aggregator) vantageParam() api.Names {
	return api.Names{Param: "vantage", Known: a.knownVantage}
}

// v1FleetLoops serves GET /api/v1/fleet/loops?limit=&prefix=: the
// deduplicated fleet loop set ordered by (start, ID). limit keeps the
// last N, those that started latest; prefix filters on the loops'
// /24-aggregated prefix.
func (a *Aggregator) v1FleetLoops(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "limit", "prefix") {
		return
	}
	limit, ok := api.Limit(w, r, 0)
	if !ok {
		return
	}
	loops := a.FleetLoops()
	if prefix := r.URL.Query().Get("prefix"); prefix != "" {
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
	api.WriteOK(w, http.StatusOK, loopscope.FleetLoopList{Loops: loops}, loopscope.Meta{Total: &total})
}

// v1FleetVantages serves GET /api/v1/fleet/vantages.
func (a *Aggregator) v1FleetVantages(w http.ResponseWriter, r *http.Request) {
	if api.StrictParams(w, r) {
		api.WriteOK(w, http.StatusOK, loopscope.FleetVantageList{Vantages: a.vantageList()}, loopscope.Meta{})
	}
}

// v1FleetStats serves GET /api/v1/fleet/stats?window=&vantage=&metric=:
// the per-vantage analytics merged fleet-wide (the vantage param
// narrows to one daemon), with the daemon's /api/v1/stats error
// discipline. A known vantage that has sent no loops yet (a poll
// target, say) gets the empty document.
func (a *Aggregator) v1FleetStats(w http.ResponseWriter, r *http.Request) {
	if !api.StrictParams(w, r, "window", "vantage", "metric") {
		return
	}
	if st := api.Stats(w, r, a.vantageParam(), a.statsDoc); st != nil {
		api.WriteOK(w, http.StatusOK, st, loopscope.Meta{})
	}
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
	vantage, ok := a.vantageParam().Get(w, r)
	if !ok {
		return
	}
	segment := r.URL.Query().Get("segment")
	if segment != "" && provenance.SegmentRank(segment) == len(provenance.Segments) {
		api.WriteError(w, http.StatusBadRequest, api.ErrBadParam,
			fmt.Sprintf("unknown segment %q (one of %v)", segment, provenance.Segments))
		return
	}
	api.WriteOK(w, http.StatusOK, a.latencyDoc(vantage, segment), loopscope.Meta{})
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
	api.WriteOK(w, http.StatusOK, loopscope.IngestReply{ID: ev.ID, Accepted: accepted, Vantage: vantage}, loopscope.Meta{})
}

// v1Statusz serves the human status page, GET /api/v1/statusz.
func (a *Aggregator) v1Statusz(w http.ResponseWriter, _ *http.Request) {
	if err := api.WritePage(w, statusPage(a.healthDoc(), a.vantageList(), a.latencyDoc("", ""))); err != nil {
		a.log.Error("statusz render failed", "err", err)
	}
}

// statusPage builds the aggregator's status page from its health,
// vantage and latency documents. One glance answers "which vantages are
// reporting, how far behind is each, and where in the pipeline is the
// time going"; the component health table lists only the components
// that are not healthy.
func statusPage(h loopscope.FleetHealth, vantages []loopscope.FleetVantage, lat *loopscope.FleetLatency) api.Page {
	p := api.Page{Title: "loopscope-agg", Summary: fmt.Sprintf("uptime %v · %d observations (%d duplicates) · %d fleet loops from %d vantages",
		time.Duration(h.UptimeS)*time.Second, h.Observations, h.Duplicates, h.FleetLoops, h.Vantages)}
	unhealthy := map[string]string{}
	for component, state := range h.Health {
		if state != resil.Healthy.String() {
			unhealthy[component] = state
		}
	}
	p.Sections = api.HealthSection(unhealthy)

	vs := api.Section{Heading: "vantages", Columns: api.Columns("name", "transports", "observations#", "duplicates#", "lag#", "cursor#", "clock skew ≤#", "health", "last error")}
	for _, v := range vantages {
		var lag, cursor, skew string
		if v.LagNs > 0 {
			lag = time.Duration(v.LagNs).Round(time.Millisecond).String()
		}
		if v.Cursor != 0 {
			cursor = strconv.FormatInt(v.Cursor, 10)
		}
		if v.SkewSamples > 0 {
			// The running-min transport delta bounds the clock offset
			// from above; negative means the vantage clock runs ahead.
			skew = api.Duration(v.SkewNs)
		}
		vs.Rows = append(vs.Rows, api.Row(v.Name, strings.Join(v.Transports, "+"), v.Observations, v.Duplicates, lag, cursor, skew, v.Health, v.LastErr))
	}

	ls := api.Section{Heading: "pipeline latency",
		Columns: api.Columns("segment", "vantage", "count#", "clamped#", "p50#", "p90#", "p99#", "distribution", "slowest events"),
		Note: "cross-process segments (send_ingest, publish_ingest, ingest_cluster, detect_cluster) include inter-host clock offset; " +
			"clamped counts negative deltas excluded from the sketches."}
	if len(lat.Segments) == 0 {
		ls = api.Section{Heading: ls.Heading, Note: "no provenance-carrying observations yet"}
	}
	for _, seg := range lat.Segments {
		var clamped string
		if seg.Clamped > 0 {
			clamped = strconv.FormatUint(seg.Clamped, 10)
		}
		exemplars := make([]string, len(seg.Exemplars))
		for i, e := range seg.Exemplars {
			exemplars[i] = e.EventID + "=" + api.Duration(e.Ns)
		}
		ls.Rows = append(ls.Rows, api.Row(seg.Segment, seg.Vantage, seg.Count, clamped, api.Duration(seg.Quantiles["p50"]),
			api.Duration(seg.Quantiles["p90"]), api.Duration(seg.Quantiles["p99"]), analytics.Spark(seg.Buckets), strings.Join(exemplars, " ")))
	}
	p.Sections = append(p.Sections, vs, ls)
	return p
}
