package obs

// The operational face: one handler serving the registry as Prometheus
// text at /metrics, expvar-style JSON at /debug/vars (the process's expvar
// variables, such as memstats, plus this registry's snapshot under
// "tangled_metrics"), and the pprof endpoints under /debug/pprof/.
// cmd/qatfarm and cmd/tangled-run mount it with -http.

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing r at /metrics plus the expvar
// and pprof debug endpoints. Each handler's /debug/vars shows its own
// registry, so several servers in one process do not share a page.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) // a failed write is the scraper's lost connection
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		vars := map[string]json.RawMessage{}
		expvar.Do(func(kv expvar.KeyValue) { vars[kv.Key] = json.RawMessage(kv.Value.String()) })
		// A snapshot that does not marshal (a NaN gauge) shows as null.
		vars["tangled_metrics"], _ = json.Marshal(r.Snapshot())
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(vars)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts Handler(r) on addr in a background goroutine and returns the
// server (Close/Shutdown to stop) and its bound address — useful when addr
// ends in :0.
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
