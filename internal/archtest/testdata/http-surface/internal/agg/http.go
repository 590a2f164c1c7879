// Package agg is not built: it is the input that proves the
// http-surface rule fires on a page served outside /api/v1/.
package agg

import "net/http"

func handler(health, statusz http.HandlerFunc, metrics http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", health)
	mux.HandleFunc("GET /statusz", statusz)
	mux.Handle("/", metrics)
	return mux
}
