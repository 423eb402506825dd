package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the expvar publication: expvar.Publish panics on
// duplicate names, and tests may start several servers in one process.
var publishOnce sync.Once

// ServeOptions configures the observability HTTP server.
type ServeOptions struct {
	// QueryHist, when non-nil, feeds the /debug/rpq/exemplars endpoint
	// (typically SolverGauges.QueryHist).
	QueryHist *Histogram
}

// debugSurface is one row of the /debug/rpq/ index.
type debugSurface struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
	// Enabled is false for surfaces this server was started without.
	Enabled bool `json:"enabled"`
}

// ServeWith starts the observability HTTP server on addr (e.g.
// "localhost:6060") for the process-wide registries, Default() and
// DefaultInflight(), serving:
//
//	/metrics            Prometheus text exposition of the live gauges and
//	                    latency histograms (summary + _hist families), plus
//	                    rpq_build_info
//	/debug/rpq/         JSON index of every debug surface with descriptions
//	/debug/rpq/queries  JSON snapshots of the queries executing right now
//	/debug/rpq/exemplars  latency-bucket trace exemplars as JSON
//	/debug/vars         expvar JSON (includes the registry under "rpq_metrics")
//	/debug/pprof/       the standard pprof profile index and on-demand
//	                    profiles (CPU samples carry the per-query labels)
//
// The listener is bound synchronously — a bad address fails here, not
// later — and requests are served on a background goroutine. The returned
// server can be Closed to stop it.
//
// The expvar "rpq_metrics" variable is process-global (expvar.Publish panics
// on duplicates) and is bound to the registry of the first server started.
func ServeWith(addr string, o ServeOptions) (*http.Server, error) {
	return serve(addr, Default(), o.QueryHist)
}

// serve is ServeWith over an explicit metric registry, so tests can serve a
// private one; hist may be nil.
func serve(addr string, reg *Registry, hist *Histogram) (*http.Server, error) {
	publishOnce.Do(func() {
		expvar.Publish("rpq_metrics", expvar.Func(func() any { return reg.Snapshot() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
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
	mux.HandleFunc("/debug/rpq/exemplars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ex := hist.Exemplars()
		if ex == nil {
			ex = []Exemplar{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"exemplars": ex})
	})
	// The debug index: every surface this server can expose, with one-line
	// descriptions, so operators stop guessing URLs. It is also the source
	// of the plain-text list served at /.
	surfaces := []debugSurface{
		{"/metrics", "Prometheus text exposition: gauges, latency summaries + _hist bucket families with trace exemplars, rpq_build_info", true},
		{"/debug/rpq/", "this index", true},
		{"/debug/rpq/queries", "JSON snapshots of the queries executing right now", true},
		{"/debug/rpq/exemplars", "latency-bucket trace exemplars (slowest buckets first) as JSON", hist != nil},
		{"/debug/vars", "expvar JSON including the registry under rpq_metrics", true},
		{"/debug/pprof/", "standard net/http/pprof index (on-demand profiles)", true},
	}
	mux.HandleFunc("/debug/rpq/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/rpq/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"schema": "rpq-debug/1", "surfaces": surfaces})
	})
	mux.Handle("/debug/vars", expvar.Handler())
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
