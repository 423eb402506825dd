// Package service implements the long-lived parametric-RPQ query service
// behind cmd/rpqd: a JSON-over-HTTP API with a named graph catalog, query
// submission against catalog entries, in-flight listing and cancellation
// backed by the process-wide in-flight registry, a shared compiled-query
// cache, and admission control (a bounded semaphore on concurrent solves
// with a bounded wait queue and per-request deadlines) so the engine
// survives heavy traffic from many clients. docs/service.md documents the
// API surface and the knobs.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpq"
	"rpq/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible defaults:
// NumCPU concurrent solves, a 2×NumCPU wait queue, 30s default / 2m max
// deadlines, a 128-entry compiled-query cache, and lint validation on.
type Config struct {
	// MaxConcurrent bounds the solver runs in flight at once; <= 0 means
	// runtime.NumCPU().
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a solve slot; a
	// request arriving with the queue full is rejected immediately with
	// HTTP 429. <= 0 means 2×MaxConcurrent; use a negative queue via
	// QueueWait <= 0 semantics is not supported — set MaxQueue small
	// instead.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being rejected with 429; <= 0 means 5s.
	QueueWait time.Duration
	// DefaultDeadline is applied to requests that do not set deadline_ms;
	// <= 0 means 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline_ms; <= 0 means 2m.
	MaxDeadline time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses;
	// <= 0 means 1s.
	RetryAfter time.Duration
	// CacheSize is the compiled-query cache capacity; <= 0 means
	// rpq.DefaultQueryCacheSize. The cache is shared by all graphs and
	// request kinds.
	CacheSize int
	// DisableLint turns off the request-validation lint gate (error-severity
	// findings reject a query with HTTP 400 before any solver work).
	// Individual requests can also opt out with "no_lint": true.
	DisableLint bool
	// MaxGraphBytes bounds a graph-load request body; <= 0 means 64 MiB.
	MaxGraphBytes int64
	// MaxQueryBytes bounds a query request body; <= 0 means 1 MiB.
	MaxQueryBytes int64
	// SlowLog, when non-nil, records slow and interrupted queries for every
	// request.
	SlowLog *rpq.SlowLog
	// Logger, when non-nil, receives the structured access log (one line
	// per request, stream="access") and the catalog-mutation audit stream
	// (stream="audit"). nil disables both.
	Logger *slog.Logger
	// SLOs configures which routes get SLO event counters
	// (rpq_http_slo_total/rpq_http_slo_good) and what counts as a good
	// request on them. /metrics exports the counters; burn rates are the
	// scraper's to compute.
	SLOs []obs.SLO
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = 64 << 20
	}
	if c.MaxQueryBytes <= 0 {
		c.MaxQueryBytes = 1 << 20
	}
	return c
}

// Server is the query service: graph catalog + query execution + admission
// control. Create with NewServer, mount Handler on an http.Server, and call
// Shutdown before process exit so in-flight queries drain (or are canceled)
// before the observability plane goes down.
type Server struct {
	cfg         Config
	cache       *rpq.QueryCache
	adm         *admission
	httpMetrics *obs.HTTPMetrics

	// ready distinguishes readiness from liveness: /api/v1/readyz reports
	// 503 until SetReady(true) (and again while draining), while
	// /api/v1/healthz stays 200 for as long as the process serves. NewServer
	// starts ready, so embedded/test use needs no extra call; cmd/rpqd
	// clears it during boot and sets it once the listeners are up.
	ready atomic.Bool

	mu      sync.RWMutex
	graphs  map[string]*graphEntry
	gGraphs *obs.Gauge

	// activeMu guards active, the obs-registry-id → cancel map behind
	// POST /api/v1/queries/{id}/cancel and CancelAll.
	activeMu sync.Mutex
	active   map[int64]context.CancelFunc

	// drainMu serializes request entry against Shutdown: once draining is
	// set no new request can join wg, so wg.Wait is race-free.
	drainMu  sync.Mutex
	draining bool
	wg       sync.WaitGroup

	gRequests *obs.Gauge
	gCanceled *obs.Gauge
	gDraining *obs.Gauge

	// hookAdmitted, when non-nil, runs on the request goroutine after a
	// solve slot is acquired and before the solver starts — tests use it to
	// hold slots deterministically.
	hookAdmitted func(ctx context.Context)
	// hookOptions, when non-nil, runs on the built rpq.Options just before
	// the solve — tests use it to hold a query at its progress hook.
	hookOptions func(*rpq.Options)
}

// NewServer returns a service with cfg's knobs resolved.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	r := obs.Default()
	s := &Server{
		cfg:       cfg,
		cache:     rpq.NewQueryCache(cfg.CacheSize),
		adm:       newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait, r),
		graphs:    map[string]*graphEntry{},
		active:    map[int64]context.CancelFunc{},
		gGraphs:   r.Gauge("rpq_svc_graphs", "graphs in the service catalog"),
		gRequests: r.Counter("rpq_svc_requests_total", "API requests accepted since process start"),
		gCanceled: r.Counter("rpq_svc_canceled_total", "queries canceled through the API since process start"),
		gDraining: r.Gauge("rpq_svc_draining", "1 while the service is draining for shutdown"),
	}
	s.httpMetrics = obs.NewHTTPMetrics(r, cfg.SLOs)
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness signal behind /api/v1/readyz. Liveness
// (/api/v1/healthz) is unaffected.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the service is accepting work: marked ready and not
// draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.Draining() }

// Cache exposes the shared compiled-query cache (for stats and tests).
func (s *Server) Cache() *rpq.QueryCache { return s.cache }

// routes are the service's HTTP routes. Each name is the route's label on
// the RED metrics and access log, and the name an SLO objective refers to.
var routes = []struct {
	pattern, name string
	handle        func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET /api/v1/healthz", "healthz", (*Server).handleHealth},
	{"GET /api/v1/readyz", "readyz", (*Server).handleReady},
	{"GET /api/v1/stats", "stats", (*Server).handleStats},
	{"GET /api/v1/graphs", "graphs_list", (*Server).handleListGraphs},
	{"PUT /api/v1/graphs/{name}", "graph_load", (*Server).handleLoadGraph},
	{"POST /api/v1/graphs/{name}", "graph_load", (*Server).handleLoadGraph},
	{"GET /api/v1/graphs/{name}", "graph_get", (*Server).handleGetGraph},
	{"DELETE /api/v1/graphs/{name}", "graph_delete", (*Server).handleDeleteGraph},
	{"POST /api/v1/query", "query", (*Server).handleQuery},
	{"GET /api/v1/queries", "queries_list", (*Server).handleListQueries},
	{"POST /api/v1/queries/{id}/cancel", "query_cancel", (*Server).handleCancelQuery},
}

// RouteNames returns the distinct route names, in registration order.
func RouteNames() []string {
	var names []string
	for _, rt := range routes {
		if !slices.Contains(names, rt.name) {
			names = append(names, rt.name)
		}
	}
	return names
}

// Handler returns the service's HTTP routes, each wrapped in the
// request-telemetry middleware under its route name.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, s.instrument(rt.name, func(w http.ResponseWriter, r *http.Request) {
			rt.handle(s, w, r)
		}))
	}
	return mux
}

// enter registers one request with the drain tracker; it reports false once
// the service is draining, in which case the caller must reject the request.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	return true
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// CancelAll cancels every query currently executing through the service.
// It returns the number of cancellations issued.
func (s *Server) CancelAll() int {
	s.activeMu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.active))
	for _, c := range s.active {
		cancels = append(cancels, c)
	}
	s.activeMu.Unlock()
	for _, c := range cancels {
		c()
	}
	return len(cancels)
}

// Shutdown drains the service: new queries are rejected with 503
// immediately, and in-flight ones are given until ctx expires to finish on
// their own, after which they are canceled (stopping at their next
// cancellation check) and awaited. It returns nil when everything drained
// without cancellation, and ctx.Err() when queries had to be canceled.
// Always call it before closing the observability server, so the last
// queries' metrics and in-flight exits are observable.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		s.gDraining.Set(1)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.CancelAll()
		<-done
		return ctx.Err()
	}
}

// ---- JSON plumbing ----

// apiError is the uniform error body: a stable machine-readable code plus a
// human-readable message, with optional structured detail (e.g. lint
// diagnostics). RequestID and TraceID echo the response headers so a client
// error report alone is greppable in the access log and trace sinks.
type apiError struct {
	Error       string `json:"error"`
	Message     string `json:"message,omitempty"`
	Diagnostics any    `json:"diagnostics,omitempty"`
	RequestID   string `json:"request_id,omitempty"`
	TraceID     string `json:"trace_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// stampIdentity fills an apiError's request/trace identity from the request
// (no-op when the request bypassed the middleware).
func stampIdentity(r *http.Request, e *apiError) {
	if ri := requestInfo(r); ri != nil {
		e.RequestID = ri.requestID
		e.TraceID = ri.trace.TraceIDString()
	}
}

func writeError(w http.ResponseWriter, r *http.Request, code int, errCode, format string, args ...any) {
	e := apiError{Error: errCode, Message: fmt.Sprintf(format, args...)}
	stampIdentity(r, &e)
	writeJSON(w, code, e)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.graphs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"graphs":   n,
		"inflight": obs.DefaultInflight().Len(),
		"draining": s.Draining(),
	})
}

// handleReady is the readiness probe: 200 only when the process has been
// marked ready and is not draining. Liveness (handleHealth) stays 200
// throughout a drain so orchestrators do not kill a server that is still
// finishing in-flight queries; readiness flips first so load balancers stop
// routing new work to it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		e := apiError{Error: "not_ready", Message: "service is draining or not yet serving"}
		stampIdentity(r, &e)
		writeJSON(w, http.StatusServiceUnavailable, e)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"inflight": obs.DefaultInflight().Len(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	graphs := len(s.graphs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":    graphs,
		"inflight":  obs.DefaultInflight().Len(),
		"draining":  s.Draining(),
		"cache":     s.cache.Stats(),
		"admission": s.adm.stats(),
		"limits": map[string]any{
			"max_concurrent":      s.cfg.MaxConcurrent,
			"max_queue":           s.cfg.MaxQueue,
			"queue_wait_ms":       s.cfg.QueueWait.Milliseconds(),
			"default_deadline_ms": s.cfg.DefaultDeadline.Milliseconds(),
			"max_deadline_ms":     s.cfg.MaxDeadline.Milliseconds(),
		},
	})
}
