package obs

import (
	"strconv"
	"time"
)

// HTTPMetrics records the service plane's RED metrics (rate, errors,
// duration) into a Registry, one observation per finished HTTP request:
//
//   - rpq_http_requests_total{route,status,kind} — request counter per route
//     × status class ("2xx".."5xx") × query kind ("-" for non-query routes);
//   - rpq_http_request_seconds{route} — latency histogram per route;
//   - rpq_http_slo_total{route} / rpq_http_slo_good{route} — per-route SLO
//     event counters for routes with a configured objective, where "good"
//     means no server error and, when the objective carries a latency
//     threshold, a duration at or under it.
//
// All families are labeled registry metrics, so they appear in /metrics, in
// Snapshot, and therefore in every tsdb point — which is what the SLO
// burn-rate tracker consumes.
type HTTPMetrics struct {
	reg  *Registry
	slos map[string]SLO
}

// NewHTTPMetrics returns a recorder writing into reg (the default registry
// when nil). slos configures which routes get SLO event counters and what
// counts as a good request on them.
func NewHTTPMetrics(reg *Registry, slos []SLO) *HTTPMetrics {
	if reg == nil {
		reg = Default()
	}
	m := &HTTPMetrics{reg: reg, slos: map[string]SLO{}}
	for _, s := range slos {
		m.slos[s.Route] = s
	}
	return m
}

// StatusClass buckets an HTTP status code as "2xx".."5xx" ("0xx" for
// anything below 100, e.g. a handler that never wrote).
func StatusClass(status int) string {
	if status < 100 || status > 999 {
		return "0xx"
	}
	return strconv.Itoa(status/100) + "xx"
}

// ObserveTrace records one finished request. route is the stable route name
// (not the raw URL), status the response code, kind the query kind for the
// query route ("" for others), dur the handler wall time. A non-empty
// traceID is attached to the latency bucket as an OpenMetrics exemplar, so
// the slow buckets in /metrics carry the most recent trace that landed in
// them.
func (m *HTTPMetrics) ObserveTrace(route string, status int, kind string, dur time.Duration, traceID string) {
	if m == nil {
		return
	}
	if kind == "" {
		kind = "-"
	}
	m.reg.LabeledGauge("rpq_http_requests_total",
		"HTTP requests served, by route, status class, and query kind",
		"route", route, "status", StatusClass(status), "kind", kind).Add(1)
	m.reg.LabeledHistogram("rpq_http_request_seconds",
		"HTTP request latency by route", "route", route).ObserveTrace(dur, traceID)
	slo, ok := m.slos[route]
	if !ok {
		return
	}
	m.reg.LabeledGauge(SLOTotalFamily,
		"SLO-eligible requests on routes with an objective", "route", route).Add(1)
	if slo.Good(status, dur) {
		m.reg.LabeledGauge(SLOGoodFamily,
			"SLO-good requests (no server error, within the latency threshold)",
			"route", route).Add(1)
	}
}
