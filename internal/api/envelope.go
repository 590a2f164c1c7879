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
// are a 400, never silently ignored. The meta block and the error
// object are pkg/loopscope's Meta and APIError, so the client that
// talks to both tiers decodes exactly what they encode.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"loopscope/pkg/loopscope"
)

// Envelope is every v1 response: data and meta on success, the error
// object alone on failure.
type Envelope struct {
	Data  any                 `json:"data,omitempty"`
	Meta  *loopscope.Meta     `json:"meta,omitempty"`
	Error *loopscope.APIError `json:"error,omitempty"`
}

// v1 error codes.
const (
	ErrBadParam = "bad_param" // malformed or unknown query parameter (400)
	ErrNotFound = "not_found" // well-formed reference to a missing resource (404)
	ErrDisabled = "disabled"  // the subsystem behind the endpoint is not configured (404)
)

// WriteOK renders one enveloped v1 response.
func WriteOK(w http.ResponseWriter, code int, data any, meta loopscope.Meta) {
	meta.API = "v1"
	WriteJSON(w, code, Envelope{Data: data, Meta: &meta})
}

// WriteError renders one v1 error object.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, Envelope{Error: &loopscope.APIError{Code: code, Message: msg}})
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
