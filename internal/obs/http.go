package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Handler returns the registry's HTTP interface:
//
//	/metrics        Prometheus text exposition
//	/debug/vars     JSON snapshot (expvar-style)
//	/debug/pprof/   the standard net/http/pprof profiles
//
// The pprof handlers are registered on the returned mux rather than
// http.DefaultServeMux, so embedding programs do not leak profiling
// endpoints onto servers they did not ask to instrument.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.writePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.writeJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics endpoint started by StartServer.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr and serves the registry's Handler in a
// background goroutine. Security default: a bare ":port" address binds
// the loopback interface only — profiling endpoints and live metrics
// are operator tools, not public surface — so exposing the endpoint
// beyond the local host requires naming an interface explicitly
// (e.g. "0.0.0.0:9090").
func StartServer(addr string, r *Registry) (*Server, error) {
	return StartHandler(addr, r.Handler())
}

// StartHandler is StartServer for an arbitrary handler: embedding
// programs (the serve daemon) mount their own API next to the metrics
// endpoints and serve both under the same loopback-defaulted policy.
func StartHandler(addr string, h http.Handler) (*Server, error) {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down. In-flight requests are aborted; the
// endpoint is a diagnostics tool, not a durable API.
func (s *Server) Close() error { return s.srv.Close() }
