package obs

import (
	"strings"
	"testing"
	"time"
)

func TestStatusClass(t *testing.T) {
	for status, want := range map[int]string{
		200: "2xx", 201: "2xx", 301: "3xx", 404: "4xx", 429: "4xx",
		499: "4xx", 500: "5xx", 503: "5xx", 99: "0xx", 1000: "0xx",
	} {
		if got := StatusClass(status); got != want {
			t.Errorf("StatusClass(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestHTTPMetricsObserve(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, []SLO{{Route: "query", Objective: 0.999, LatencyThreshold: 50 * time.Millisecond}})

	m.Observe("query", 200, "exist", 10*time.Millisecond)
	m.Observe("query", 200, "exist", 100*time.Millisecond) // good status, too slow
	m.Observe("query", 500, "universal", 10*time.Millisecond)
	m.Observe("query", 429, "exist", time.Millisecond)
	m.Observe("stats", 200, "", time.Millisecond) // no SLO on this route

	var b strings.Builder
	reg.WritePrometheus(&b)
	for key, want := range map[string]int64{
		`rpq_http_requests_total{route="query",status="2xx",kind="exist"}`:     2,
		`rpq_http_requests_total{route="query",status="5xx",kind="universal"}`: 1,
		`rpq_http_requests_total{route="query",status="4xx",kind="exist"}`:     1,
		`rpq_http_requests_total{route="stats",status="2xx",kind="-"}`:         1,
		`rpq_http_slo_total{route="query"}`:                                    4,
		`rpq_http_slo_good{route="query"}`:                                     2, // the fast 200 and the fast 429
	} {
		if got := reg.Gauge(key, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	for route, want := range map[string]int64{"query": 4, "stats": 1} {
		if _, got, _ := reg.LabeledHistogram("rpq_http_request_seconds", "", "route", route).snapshot(); got != want {
			t.Errorf("rpq_http_request_seconds{route=%q} count = %d, want %d", route, got, want)
		}
	}
	if strings.Contains(b.String(), `rpq_http_slo_total{route="stats"}`) {
		t.Error("stats route grew SLO counters without an objective")
	}
}

// TestLabeledExposition renders labeled families and checks the exposition
// stays valid: one HELP/TYPE header per family (never per label combination)
// and label bodies merged correctly into bucket, sum and count samples.
func TestLabeledExposition(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, nil)
	m.Observe("query", 200, "exist", 10*time.Millisecond)
	m.Observe("stats", 404, "", time.Millisecond)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE rpq_http_requests_total counter\n",
		`rpq_http_requests_total{route="query",status="2xx",kind="exist"} 1` + "\n",
		`rpq_http_requests_total{route="stats",status="4xx",kind="-"} 1` + "\n",
		"# TYPE rpq_http_request_seconds histogram\n",
		`rpq_http_request_seconds_bucket{route="query",le="0.016384"} 1` + "\n",
		`rpq_http_request_seconds_bucket{route="query",le="+Inf"} 1` + "\n",
		`rpq_http_request_seconds_sum{route="query"} 0.01` + "\n",
		`rpq_http_request_seconds_count{route="query"} 1` + "\n",
		`rpq_http_request_seconds_count{route="stats"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Headers are per family: exactly one TYPE line even with two routes.
	if n := strings.Count(out, "# TYPE rpq_http_requests_total counter"); n != 1 {
		t.Errorf("rpq_http_requests_total TYPE lines = %d, want 1", n)
	}
	if n := strings.Count(out, "# TYPE rpq_http_request_seconds histogram"); n != 1 {
		t.Errorf("rpq_http_request_seconds TYPE lines = %d, want 1", n)
	}
	// No TYPE/HELP line may name a label body — that would be invalid
	// exposition syntax.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(line, "{") {
			t.Errorf("header line carries labels: %q", line)
		}
	}
}
