package serve

import "net/http"

func handler(health http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", health)
	return mux
}
