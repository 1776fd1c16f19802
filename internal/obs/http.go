package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Debug pages contributed by higher layers. obs sits at the bottom of the
// import graph, so subsystems that want a page on the introspection
// endpoint (e.g. pardis-reg's /debug/groups) register it here rather than
// being imported by obs.
var (
	pagesMu sync.Mutex
	pages   = map[string]http.HandlerFunc{}
)

// The readiness probe behind /healthz. nil means "ready as soon as the
// endpoint answers".
var (
	healthMu sync.Mutex
	healthFn func() error
)

// RegisterHealth installs the readiness probe /healthz consults: return
// nil for ready, an error (rendered with a 503) for not. Passing nil
// restores the default always-ready probe.
func RegisterHealth(f func() error) {
	healthMu.Lock()
	healthFn = f
	healthMu.Unlock()
}

// RegisterDebugPage mounts h at path on every Handler built afterward.
// Registering a path twice replaces the handler.
func RegisterDebugPage(path string, h http.HandlerFunc) {
	pagesMu.Lock()
	defer pagesMu.Unlock()
	if h == nil {
		delete(pages, path)
		return
	}
	pages[path] = h
}

// Handler returns an http.Handler exposing reg and tracer:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON document
//	/debug/trace   Chrome trace-event JSON of the recorded spans
//	/debug/pprof/  the standard Go profiling endpoints
//	/healthz       readiness probe (RegisterHealth; default always 200)
//
// Either argument may be nil, in which case its routes 404.
func Handler(reg *Registry, tracer *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthMu.Lock()
		f := healthFn
		healthMu.Unlock()
		if f != nil {
			if err := f(); err != nil {
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
	pagesMu.Lock()
	for path, h := range pages {
		mux.HandleFunc(path, h)
	}
	pagesMu.Unlock()
	return mux
}

// Serve starts the debug endpoint on addr (e.g. "localhost:6060", or ":0"
// for an ephemeral port) and returns the bound address plus a closer. The
// endpoint is strictly opt-in — nothing in PARDIS starts one — so production
// deployments pay nothing and expose nothing unless asked.
func Serve(addr string, reg *Registry, tracer *Tracer) (bound string, close func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, tracer)}
	go srv.Serve(ln)
	return ln.Addr().String(), ln.Close, nil
}
