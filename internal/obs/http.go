package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// debugSurface is one row of the /debug/rpq/ index.
type debugSurface struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
}

// Serve starts the observability HTTP server on addr (e.g.
// "localhost:6060") for the process-wide registries, Default() and
// DefaultInflight(), serving:
//
//	/metrics            Prometheus text exposition of the gauges and
//	                    counters, one histogram family per latency, the
//	                    go_* runtime metrics read at scrape time, and
//	                    rpq_build_info
//	/debug/rpq/         JSON index of every debug surface with descriptions
//	/debug/rpq/queries  JSON snapshots of the queries executing right now
//	/debug/pprof/       the standard pprof profile index and on-demand
//	                    profiles (CPU samples carry the per-query labels)
//
// The listener is bound synchronously — a bad address fails here, not
// later — and requests are served on a background goroutine. Closing the
// returned server stops it; no other goroutine is started.
func Serve(addr string) (*http.Server, error) {
	return serve(addr, Default())
}

// serve is Serve over an explicit metric registry, so tests can serve a
// private one.
func serve(addr string, reg *Registry) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
		WriteRuntimeGauges(w)
		WriteBuildInfo(w)
	})
	mux.HandleFunc("/debug/rpq/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snaps := DefaultInflight().Snapshots()
		if snaps == nil {
			snaps = []QuerySnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"queries": snaps})
	})
	// The debug index: every surface this server exposes, with one-line
	// descriptions, so operators stop guessing URLs. It is also the source
	// of the plain-text list served at /.
	surfaces := []debugSurface{
		{"/metrics", "Prometheus text exposition: gauges, counters, one histogram family per latency, go_* runtime metrics, rpq_build_info"},
		{"/debug/rpq/", "this index"},
		{"/debug/rpq/queries", "JSON snapshots of the queries executing right now"},
		{"/debug/pprof/", "standard net/http/pprof index (on-demand profiles)"},
	}
	mux.HandleFunc("/debug/rpq/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/rpq/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"schema": "rpq-debug/2", "surfaces": surfaces})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "rpq observability\n\n")
		for _, s := range surfaces {
			fmt.Fprintln(w, s.Path)
		}
	})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}
