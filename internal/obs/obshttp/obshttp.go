// Package obshttp serves the obs plane over HTTP: the opt-in debug endpoint
// of a PARDIS process. It lives apart from obs so that the runtime, which
// every computing thread links, carries no HTTP server, TLS stack or
// profiler; only the commands that start an endpoint import it.
package obshttp

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"pardis/internal/obs"
)

// Handler returns an http.Handler exposing reg and tracer:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON document
//	/debug/trace   Chrome trace-event JSON of the recorded spans
//	/debug/pprof/  the standard Go profiling endpoints
//	/healthz       readiness probe
//
// Either of reg and tracer may be nil, in which case its routes 404. health
// is the probe /healthz consults: nil for ready, an error (rendered with a
// 503) for not; a nil health means ready as soon as the endpoint answers.
// pages adds one route per entry, for the pages of higher layers (e.g.
// pardis-reg's /debug/groups).
func Handler(reg *obs.Registry, tracer *obs.Tracer, health func() error, pages map[string]http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	// CPU/heap profiles for the chaos soak and ops tooling. The pprof trace
	// endpoint lives under /debug/pprof/trace; /debug/trace stays the Chrome
	// span export.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w)
		})
		mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
		})
	}
	if tracer != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			tracer.WriteChromeTrace(w)
		})
	}
	for path, h := range pages {
		mux.HandleFunc(path, h)
	}
	return mux
}

// Serve starts the debug endpoint of Handler(reg, tracer, health, pages) on
// addr (e.g. "localhost:6060", or ":0" for an ephemeral port) and returns
// the bound address plus a stop function. stop closes the listener and
// every connection, kept-alive ones included, so nothing is served after it
// returns.
func Serve(addr string, reg *obs.Registry, tracer *obs.Tracer, health func() error, pages map[string]http.HandlerFunc) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obshttp: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, tracer, health, pages)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
