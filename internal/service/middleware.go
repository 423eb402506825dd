package service

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"rpq/internal/obs"
)

// reqInfo is the per-request telemetry record the middleware threads through
// the handler chain via the request context: the request's identity (request
// ID + W3C trace context) plus the annotations handlers fill in while
// serving. The middleware creates it, the handler mutates it, and the
// middleware reads it back after the handler returns — all on the request
// goroutine, so no locking is needed.
type reqInfo struct {
	route     string
	requestID string
	trace     obs.TraceContext

	// Annotations the query/catalog handlers fill in for the access log.
	kind       string // query kind ("exist"/"universal"/"violations")
	graph      string // graph name the request touched
	queryID    int64  // in-flight registry id of the solve, once begun
	admission  string // admission outcome: "ok", "rejected", "canceled"
	cpuNS      int64  // CPU time attributed to the solve (from Stats)
	allocBytes int64  // heap bytes attributed to the solve (from Stats)
}

// reqInfoKey keys the reqInfo in a request context.
type reqInfoKey struct{}

// requestInfo returns the request's telemetry record, nil when the request
// did not pass through the middleware (e.g. a bare handler under test).
func requestInfo(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status code for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps one route's handler with the request-telemetry
// middleware. Per request it:
//
//   - ingests the client's W3C traceparent header (keeping its trace ID and
//     minting a fresh server span) or generates a new trace when the header
//     is absent, malformed, or carries the all-zero invalid IDs;
//   - assigns a request ID and sets the X-RPQ-Request-Id, X-RPQ-Trace-Id,
//     and traceparent response headers before the handler can write;
//   - threads the trace through the request context (obs.WithTrace), so the
//     rpq entry points stamp it into in-flight snapshots, slow-log records,
//     and pprof labels;
//   - records the per-route RED metrics after the handler returns;
//   - emits one structured access-log line.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ri := &reqInfo{route: route, requestID: obs.NewRequestID()}
		if tc, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			ri.trace = tc.Child()
		} else {
			ri.trace = obs.NewTraceContext()
		}
		hdr := w.Header()
		hdr.Set("X-RPQ-Request-Id", ri.requestID)
		hdr.Set("X-RPQ-Trace-Id", ri.trace.TraceIDString())
		hdr.Set("traceparent", ri.trace.Traceparent())
		ctx := obs.WithTrace(r.Context(), ri.trace)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			// Handler never wrote; net/http sends 200 on return.
			status = http.StatusOK
		}
		dur := time.Since(t0)
		s.httpMetrics.Observe(route, status, ri.kind, dur)
		s.logAccess(r, ri, status, dur)
	}
}

// logAccess emits one access-log line (stream="access"). No-op without a
// configured logger.
func (s *Server) logAccess(r *http.Request, ri *reqInfo, status int, dur time.Duration) {
	if s.cfg.Logger == nil {
		return
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelError
	}
	attrs := []slog.Attr{
		slog.String("stream", "access"),
		slog.String("route", ri.route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("dur_ms", float64(dur.Microseconds())/1e3),
		slog.String("request_id", ri.requestID),
		slog.String("trace_id", ri.trace.TraceIDString()),
		slog.String("span_id", ri.trace.SpanIDString()),
		slog.String("remote", r.RemoteAddr),
	}
	if ri.kind != "" {
		attrs = append(attrs, slog.String("kind", ri.kind))
	}
	if ri.graph != "" {
		attrs = append(attrs, slog.String("graph", ri.graph))
	}
	if ri.queryID != 0 {
		attrs = append(attrs, slog.Int64("query_id", ri.queryID))
	}
	if ri.admission != "" {
		attrs = append(attrs, slog.String("admission", ri.admission))
	}
	if ri.cpuNS != 0 {
		attrs = append(attrs, slog.Int64("cpu_ns", ri.cpuNS))
	}
	if ri.allocBytes != 0 {
		attrs = append(attrs, slog.Int64("alloc_bytes", ri.allocBytes))
	}
	s.cfg.Logger.LogAttrs(context.Background(), level, "access", attrs...)
}

// logAudit emits one audit-log line for a catalog mutation
// (stream="audit"). No-op without a configured logger.
func (s *Server) logAudit(r *http.Request, action, graph, result string) {
	if s.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("stream", "audit"),
		slog.String("action", action),
		slog.String("graph", graph),
		slog.String("result", result),
		slog.String("remote", r.RemoteAddr),
	}
	if ri := requestInfo(r); ri != nil {
		attrs = append(attrs,
			slog.String("request_id", ri.requestID),
			slog.String("trace_id", ri.trace.TraceIDString()))
	}
	s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "audit", attrs...)
}
