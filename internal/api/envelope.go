// Package api holds the /api/v1 wire conventions shared by every
// HTTP surface in the system — the loopscoped daemon (internal/serve)
// and the fleet aggregator (internal/agg). One envelope for success:
//
//	{"data": …, "meta": {"api": "v1", …}}
//
// one error object with a correct status code:
//
//	{"error": {"code": "bad_param", "message": "…"}}
//
// and one query-parameter contract: unknown or repeated parameters
// are a 400, never silently ignored. Keeping the protocol in one
// package is what lets pkg/loopscope talk to both tiers with a single
// client.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Meta is the envelope's metadata block.
type Meta struct {
	API string `json:"api"`
	// Vantage is the answering instance's stable identity (the
	// loopscoped -vantage flag), so aggregators can attribute a
	// response without transport heuristics.
	Vantage string `json:"vantage,omitempty"`
	// Total is the all-time event count behind a paginated listing.
	Total *int64 `json:"total,omitempty"`
	// NextCursor, when present, fetches the next (older) page.
	NextCursor *int64 `json:"nextCursor,omitempty"`
}

// Envelope is every v1 success response.
type Envelope struct {
	Data any  `json:"data"`
	Meta Meta `json:"meta"`
}

// ErrorBody is every v1 error response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the machine-readable error object.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// v1 error codes.
const (
	ErrBadParam = "bad_param" // malformed or unknown query parameter (400)
	ErrNotFound = "not_found" // well-formed reference to a missing resource (404)
	ErrDisabled = "disabled"  // the subsystem behind the endpoint is not configured (404)
)

// WriteOK renders one enveloped v1 response.
func WriteOK(w http.ResponseWriter, code int, data any, meta Meta) {
	meta.API = "v1"
	WriteJSON(w, code, Envelope{Data: data, Meta: meta})
}

// WriteError renders one v1 error object.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// StrictParams enforces the v1 query-parameter contract: every
// parameter must be known and appear at most once. A typo'd or
// repeated parameter is a 400, never silently ignored.
func StrictParams(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for name, vals := range r.URL.Query() {
		known := false
		for _, a := range allowed {
			if name == a {
				known = true
				break
			}
		}
		if !known {
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

// WriteJSON renders one API response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
