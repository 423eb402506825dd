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
	// Registry is the metric registry served on /metrics and /debug/vars;
	// nil means Default().
	Registry *Registry
	// Inflight is the in-flight query registry served on /debug/rpq/queries;
	// nil means DefaultInflight().
	Inflight *Inflight
	// TimeSeries, when non-nil, is exported on /debug/rpq/ts and feeds the
	// dashboard's sparklines. The server does not start or stop it.
	TimeSeries *TimeSeries
	// SLO, when non-nil, is served on /debug/rpq/slo and feeds the
	// dashboard's burn-rate panel.
	SLO *SLOTracker
	// Prof, when non-nil, is the continuous profiler's HTTP surface
	// (prof.Profiler.Handler()), mounted at /debug/rpq/prof.
	Prof http.Handler
	// QueryHist, when non-nil, feeds the /debug/rpq/exemplars endpoint and
	// the dashboard's trace-exemplar table (typically SolverGauges.QueryHist).
	QueryHist *Histogram
}

// debugSurface is one row of the /debug/rpq/ index.
type debugSurface struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
	// Enabled is false for surfaces this server was started without.
	Enabled bool `json:"enabled"`
}

// Serve starts the observability HTTP server on addr with default options;
// see ServeWith.
func Serve(addr string, reg *Registry) (*http.Server, error) {
	return ServeWith(addr, ServeOptions{Registry: reg})
}

// ServeWith starts the observability HTTP server on addr (e.g.
// "localhost:6060") serving:
//
//	/metrics            Prometheus text exposition of the live gauges and
//	                    latency histograms (summary + _hist families), plus
//	                    rpq_build_info
//	/debug/rpq/         JSON index of every debug surface with descriptions
//	/debug/rpq/queries  JSON snapshots of the queries executing right now
//	/debug/rpq/ts       the retained telemetry window as rpq-tsdb/1 JSON
//	/debug/rpq/slo      SLO burn rates as rpq-slo/1 JSON (when configured)
//	/debug/rpq/prof     continuous-profiler windows as rpq-prof/1 JSON (when
//	                    configured; raw pprof bytes under /download)
//	/debug/rpq/exemplars  latency-bucket trace exemplars as JSON
//	/debug/rpq/dash     the live HTML dashboard
//	/debug/vars         expvar JSON (includes the registry under "rpq_metrics")
//	/debug/pprof/       the standard pprof profile index
//
// The listener is bound synchronously — a bad address fails here, not
// later — and requests are served on a background goroutine. The returned
// server can be Closed to stop it.
//
// The expvar "rpq_metrics" variable is process-global (expvar.Publish panics
// on duplicates) and is bound to the registry of the first Serve call.
func ServeWith(addr string, o ServeOptions) (*http.Server, error) {
	reg := o.Registry
	if reg == nil {
		reg = Default()
	}
	inflight := o.Inflight
	if inflight == nil {
		inflight = DefaultInflight()
	}
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
		snaps := inflight.Snapshots()
		if snaps == nil {
			snaps = []QuerySnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"queries": snaps})
	})
	mux.HandleFunc("/debug/rpq/ts", func(w http.ResponseWriter, r *http.Request) {
		if o.TimeSeries == nil {
			http.Error(w, "time-series store not enabled on this server", http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.TimeSeries.WriteJSON(w)
	})
	mux.HandleFunc("/debug/rpq/slo", func(w http.ResponseWriter, r *http.Request) {
		if o.SLO == nil {
			http.Error(w, "SLO tracking not enabled on this server", http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.SLO.WriteJSON(w)
	})
	if o.Prof != nil {
		mux.Handle("/debug/rpq/prof", o.Prof)
		mux.Handle("/debug/rpq/prof/", o.Prof)
	} else {
		mux.HandleFunc("/debug/rpq/prof", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "continuous profiling not enabled on this server", http.StatusNotImplemented)
		})
	}
	mux.HandleFunc("/debug/rpq/exemplars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ex := o.QueryHist.Exemplars()
		if ex == nil {
			ex = []Exemplar{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"exemplars": ex})
	})
	// The debug index: every surface this server can expose, with one-line
	// descriptions, so operators stop guessing URLs.
	surfaces := []debugSurface{
		{"/metrics", "Prometheus text exposition: gauges, latency summaries + _hist bucket families with trace exemplars, rpq_build_info", true},
		{"/debug/rpq/", "this index", true},
		{"/debug/rpq/queries", "JSON snapshots of the queries executing right now", true},
		{"/debug/rpq/ts", "retained telemetry window as rpq-tsdb/1 JSON (sparkline source)", o.TimeSeries != nil},
		{"/debug/rpq/slo", "SLO burn rates per objective and window as rpq-slo/1 JSON", o.SLO != nil},
		{"/debug/rpq/prof", "continuous-profiler windows as rpq-prof/1 JSON with each window's pprof label values; /download?window=N fetches the raw pprof proto for go tool pprof", o.Prof != nil},
		{"/debug/rpq/exemplars", "latency-bucket trace exemplars (slowest buckets first) as JSON", o.QueryHist != nil},
		{"/debug/rpq/dash", "live HTML dashboard: sparklines, in-flight queries, SLO burn, latency exemplars", true},
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
	mux.Handle("/debug/rpq/dash", DashHandler())
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
		fmt.Fprint(w, "rpq observability\n\n/metrics\n/debug/rpq/\n/debug/rpq/queries\n/debug/rpq/ts\n/debug/rpq/slo\n/debug/rpq/prof\n/debug/rpq/exemplars\n/debug/rpq/dash\n/debug/vars\n/debug/pprof/\n")
	})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}
