// Package api holds the /api/v1 conventions shared by every HTTP
// surface in the system, the loopscoped daemon (internal/serve) and the
// fleet aggregator (internal/agg), so that each exists once. One
// envelope for success:
//
//	{"data": …, "meta": {"api": "v1", …}}
//
// one error object with a correct status code:
//
//	{"error": {"code": "bad_param", "message": "…"}}
//
// one query-parameter contract: unknown or repeated parameters are a
// 400, never silently ignored. The envelope is pkg/loopscope's
// Envelope, so the client that talks to both tiers decodes exactly
// what they encode. The handler rules both tiers apply (the limit of a
// listing, the name parameter a 404 guards, the stats query) and the
// one HTML status page renderer live here too.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"loopscope/internal/analytics"
	"loopscope/pkg/loopscope"
)

// v1 error codes.
const (
	ErrBadParam = "bad_param" // malformed or unknown query parameter (400)
	ErrNotFound = "not_found" // well-formed reference to a missing resource (404)
	ErrDisabled = "disabled"  // the subsystem behind the endpoint is not configured (404)
)

// WriteOK renders one enveloped v1 response.
func WriteOK(w http.ResponseWriter, code int, data any, meta loopscope.Meta) {
	meta.API = "v1"
	WriteJSON(w, code, loopscope.Envelope{Data: data, Meta: &meta})
}

// WriteError renders one v1 error object.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, loopscope.Envelope{Error: &loopscope.APIError{Code: code, Message: msg}})
}

// query parses the request's raw query. r.URL.Query() drops every
// pair that fails to parse (a bad escape, a semicolon separator), so a
// malformed parameter would pass as an absent one; here the whole
// query is a 400 instead, and ok is false.
func query(w http.ResponseWriter, r *http.Request) (q url.Values, ok bool) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrBadParam, "malformed query: "+err.Error())
		return nil, false
	}
	return q, true
}

// StrictParams enforces the v1 query-parameter contract: the query
// must parse, and every parameter must be known and appear at most
// once. A malformed, typo'd or repeated parameter is a 400, never
// silently ignored. Once it has passed, r.URL.Query() holds every
// parameter.
func StrictParams(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	q, ok := query(w, r)
	if !ok {
		return false
	}
	for name, vals := range q {
		if !slices.Contains(allowed, name) {
			WriteError(w, http.StatusBadRequest, ErrBadParam,
				fmt.Sprintf("unknown parameter %q (allowed: %s)", name, strings.Join(allowed, ", ")))
			return false
		}
		if len(vals) > 1 {
			WriteError(w, http.StatusBadRequest, ErrBadParam,
				fmt.Sprintf("parameter %q repeated", name))
			return false
		}
	}
	return true
}

// MaxLimit caps one page of a listing (GET /api/v1/loops and
// /api/v1/fleet/loops).
const MaxLimit = 1000

// Limit parses a listing's optional ?limit=: def when absent or empty,
// else a decimal integer in 1..MaxLimit; anything else, a malformed
// query included, is a 400 and ok is false.
func Limit(w http.ResponseWriter, r *http.Request, def int) (limit int, ok bool) {
	q, ok := query(w, r)
	if !ok {
		return 0, false
	}
	v := q.Get("limit")
	if v == "" {
		return def, true
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n < 1 || n > MaxLimit {
		WriteError(w, http.StatusBadRequest, ErrBadParam,
			fmt.Sprintf("limit must be an integer in 1..%d, got %q", MaxLimit, v))
		return 0, false
	}
	return int(n), true
}

// Names is what an optional name parameter (?source=, ?vantage=) may
// name.
type Names struct {
	Param string
	Known func(name string) bool
	// List, when set, returns every valid name for the 404's message.
	List func() []string
}

// Get returns the parameter's value: empty or known, or a 404
// not_found and ok false.
func (n Names) Get(w http.ResponseWriter, r *http.Request) (name string, ok bool) {
	name = r.URL.Query().Get(n.Param)
	if name == "" || n.Known(name) {
		return name, true
	}
	msg := "unknown " + n.Param + " " + name
	if n.List != nil {
		msg = fmt.Sprintf("unknown %s %q (have: %s)", n.Param, name, strings.Join(n.List(), ", "))
	}
	WriteError(w, http.StatusNotFound, ErrNotFound, msg)
	return "", false
}

// Stats runs a stats request's query: ?window= (a 400 when malformed),
// the name parameter n guards, and ?metric=. An unknown metric is a
// 400 and any other query error a 404 disabled; either way st is nil.
func Stats(w http.ResponseWriter, r *http.Request, n Names, query func(analytics.Query) (*loopscope.Stats, error)) (st *loopscope.Stats) {
	window, err := analytics.ParseWindow(r.URL.Query().Get("window"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrBadParam, err.Error())
		return nil
	}
	name, ok := n.Get(w, r)
	if !ok {
		return nil
	}
	st, err = query(analytics.Query{Window: window, Source: name, Metric: r.URL.Query().Get("metric")})
	if err == nil {
		return st
	}
	if _, unknown := err.(*analytics.ErrUnknownMetric); unknown {
		WriteError(w, http.StatusBadRequest, ErrBadParam, err.Error())
	} else {
		WriteError(w, http.StatusNotFound, ErrDisabled, err.Error())
	}
	return nil
}

// WriteJSON renders one API response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
