package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rpq"
	"rpq/internal/obs"
)

const (
	tpFixed   = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tpTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
)

// TestMiddlewareTraceIngestion pins the traceparent handling matrix: a valid
// inbound header keeps its trace ID (with a fresh server span); malformed,
// all-zero, and absent headers each get a freshly generated trace.
func TestMiddlewareTraceIngestion(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name, header string
		ingested     bool
	}{
		{"valid", tpFixed, true},
		{"absent", "", false},
		{"malformed", "zz-not-a-traceparent", false},
		{"truncated", tpFixed[:40], false},
		{"all-zero trace", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"all-zero span", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"uppercase", strings.ToUpper(tpFixed[3:35]) + tpFixed[35:], false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", "/api/v1/healthz", nil)
			if c.header != "" {
				req.Header.Set("traceparent", c.header)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
			}
			traceID := rec.Header().Get("X-RPQ-Trace-Id")
			tp := rec.Header().Get("traceparent")
			reqID := rec.Header().Get("X-RPQ-Request-Id")
			if len(traceID) != 32 || len(reqID) != 16 {
				t.Fatalf("identity headers: trace=%q request=%q", traceID, reqID)
			}
			back, err := obs.ParseTraceparent(tp)
			if err != nil {
				t.Fatalf("response traceparent %q: %v", tp, err)
			}
			if back.TraceIDString() != traceID {
				t.Fatalf("traceparent %q disagrees with X-RPQ-Trace-Id %q", tp, traceID)
			}
			if c.ingested {
				if traceID != tpTraceID {
					t.Fatalf("ingested trace = %q, want %q", traceID, tpTraceID)
				}
				if back.SpanIDString() == "00f067aa0ba902b7" {
					t.Fatal("server reused the client's span ID")
				}
			} else if traceID == tpTraceID {
				t.Fatalf("%s header was ingested as-is", c.name)
			}
		})
	}
}

// TestErrorBodyCarriesIdentity: JSON error bodies echo the request and trace
// IDs the middleware assigned, matching the response headers.
func TestErrorBodyCarriesIdentity(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	for _, c := range []struct {
		body     string
		code     int
		errValue string
	}{
		{`{"graph":"nope","pattern":"use(x)"}`, http.StatusNotFound, "unknown_graph"},
		{`{"graph":"g","pattern":"!_ use(x)"}`, http.StatusBadRequest, "lint_rejected"},
	} {
		req := httptest.NewRequest("POST", "/api/v1/query", strings.NewReader(c.body))
		req.Header.Set("traceparent", tpFixed)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Fatalf("%s: %d %s", c.errValue, rec.Code, rec.Body)
		}
		body := decodeBody(t, rec)
		if body["error"] != c.errValue {
			t.Fatalf("error = %v", body["error"])
		}
		if body["trace_id"] != tpTraceID {
			t.Fatalf("error body trace_id = %v, want %v", body["trace_id"], tpTraceID)
		}
		if body["request_id"] != rec.Header().Get("X-RPQ-Request-Id") {
			t.Fatalf("error body request_id = %v, header %q",
				body["request_id"], rec.Header().Get("X-RPQ-Request-Id"))
		}
	}
}

// TestMiddlewareIDUniqueness: request and trace IDs stay unique under
// concurrent requests (run with -race for the interleaving check).
func TestMiddlewareIDUniqueness(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const goroutines, per = 8, 50
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := doReq(h, "GET", "/api/v1/healthz", "")
				if rec.Code != http.StatusOK {
					t.Errorf("healthz: %d", rec.Code)
					return
				}
				ids[g] = append(ids[g],
					rec.Header().Get("X-RPQ-Request-Id"),
					rec.Header().Get("X-RPQ-Trace-Id"))
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate id %q", id)
			}
			seen[id] = true
		}
	}
}

// TestRouteMetricLabels: every route records under its stable name with the
// right status class and query kind. Other tests share the process-wide
// registry, so it reads each sample as a delta.
func TestRouteMetricLabels(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	want := map[string]float64{
		`rpq_http_requests_total{route="healthz",status="2xx",kind="-"}`:       1,
		`rpq_http_requests_total{route="query",status="2xx",kind="exist"}`:     1,
		`rpq_http_requests_total{route="query",status="2xx",kind="universal"}`: 1,
		`rpq_http_requests_total{route="query",status="4xx",kind="exist"}`:     1,
		`rpq_http_requests_total{route="graphs_list",status="2xx",kind="-"}`:   1,
		`rpq_http_request_seconds_count{route="query"}`:                        3,
	}
	before := map[string]float64{}
	for key := range want {
		before[key] = scrapeSample(t, obs.Default(), key)
	}

	doReq(h, "GET", "/api/v1/healthz", "")
	doReq(h, "POST", "/api/v1/query", `{"graph":"g","pattern":"use(x)"}`)
	doReq(h, "POST", "/api/v1/query", `{"graph":"g","kind":"universal","pattern":"(!use(x))* def(x) _*"}`)
	doReq(h, "POST", "/api/v1/query", `{"graph":"nope","pattern":"use(x)"}`)
	doReq(h, "GET", "/api/v1/graphs", "")

	for key, w := range want {
		if got := scrapeSample(t, obs.Default(), key) - before[key]; got != w {
			t.Errorf("%s advanced by %v, want %v", key, got, w)
		}
	}
}

// TestQuerySLOCountsClientErrorsGood: a 400 is the request's fault, so it
// counts as good against a query SLO; every reply below, the six 400s and
// the one 200, advances rpq_http_slo_total and rpq_http_slo_good alike.
func TestQuerySLOCountsClientErrorsGood(t *testing.T) {
	s := newTestServer(t, Config{SLOs: []rpq.SLO{{Route: "query", Objective: 0.999}}})
	h := s.Handler()
	const total, good = `rpq_http_slo_total{route="query"}`, `rpq_http_slo_good{route="query"}`
	totalBefore, goodBefore := scrapeSample(t, obs.Default(), total), scrapeSample(t, obs.Default(), good)
	for body, code := range map[string]int{
		`{"graph":"g","kind":"maybe","pattern":"use(x)"}`:                       http.StatusBadRequest,
		`{"graph":"g","pattern":"use(x)","optoins":{"algorithm":"memo"}}`:       http.StatusBadRequest,
		`{"graph":"g","pattern":"use(x)"} trailing`:                             http.StatusBadRequest,
		`{"graph":"g","pattern":"use(x)","options":{"algorithm":"hybrid"}}`:     http.StatusBadRequest,
		`{"graph":"g","pattern":"use(x)","options":{"start":"no-such-vertex"}}`: http.StatusBadRequest,
		`{"graph":"g","kind":"violations","pattern":"(!def(x))* use(x)"}`:       http.StatusBadRequest,
		`{"graph":"g","pattern":"(!def(x))* use(x)"}`:                           http.StatusOK,
	} {
		if rec := doReq(h, "POST", "/api/v1/query", body); rec.Code != code {
			t.Fatalf("%s: %d %s, want %d", body, rec.Code, rec.Body, code)
		}
	}
	dTotal := scrapeSample(t, obs.Default(), total) - totalBefore
	dGood := scrapeSample(t, obs.Default(), good) - goodBefore
	if dTotal != 7 || dGood != dTotal {
		t.Fatalf("SLO deltas: total %v, good %v; want 7 and 7", dTotal, dGood)
	}
}

// TestReadyzSplit: readyz follows SetReady and the drain state while healthz
// stays a pure liveness probe.
func TestReadyzSplit(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	if rec := doReq(h, "GET", "/api/v1/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz while ready: %d %s", rec.Code, rec.Body)
	}
	s.SetReady(false)
	rec := doReq(h, "GET", "/api/v1/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while not ready: %d %s", rec.Code, rec.Body)
	}
	body := decodeBody(t, rec)
	if body["error"] != "not_ready" || body["request_id"] == "" || body["trace_id"] == "" {
		t.Fatalf("readyz 503 body: %s", rec.Body)
	}
	if rec := doReq(h, "GET", "/api/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz while not ready: %d %s", rec.Code, rec.Body)
	}
	s.SetReady(true)
	if rec := doReq(h, "GET", "/api/v1/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz after SetReady(true): %d %s", rec.Code, rec.Body)
	}
}

// TestTraceEndToEnd holds a traced query in flight with the progress gate and
// follows its trace ID through every surface: the response headers, the
// in-flight snapshot, the slow-query log, and the access log.
func TestTraceEndToEnd(t *testing.T) {
	var slowBuf, logBuf bytes.Buffer
	s := newTestServer(t, Config{
		SlowLog: rpq.NewSlowLog(&slowBuf, time.Nanosecond),
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	h := s.Handler()
	gate := newProgressGate()
	s.hookOptions = gate.hook

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/api/v1/query",
			strings.NewReader(`{"graph":"g","pattern":"(!def(x))* use(x)"}`))
		req.Header.Set("traceparent", tpFixed)
		h.ServeHTTP(rec, req)
	}()
	<-gate.entered

	// Surface 1: the in-flight snapshot carries the trace while the solver
	// holds the gate.
	lrec := doReq(h, "GET", "/api/v1/queries", "")
	var listing struct {
		Queries []struct {
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	if len(listing.Queries) != 1 || listing.Queries[0].TraceID != tpTraceID {
		t.Fatalf("in-flight snapshot: %s", lrec.Body)
	}
	if len(listing.Queries[0].SpanID) != 16 {
		t.Fatalf("in-flight span: %s", lrec.Body)
	}

	close(gate.release)
	<-done

	// Surface 2: the response headers.
	if rec.Code != http.StatusOK {
		t.Fatalf("traced query: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-RPQ-Trace-Id"); got != tpTraceID {
		t.Fatalf("X-RPQ-Trace-Id = %q", got)
	}

	// Surface 3: the slow-log record (threshold 1ns, so the gated query
	// qualifies).
	var slowRec struct {
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
	}
	if err := json.Unmarshal(slowBuf.Bytes(), &slowRec); err != nil {
		t.Fatalf("decode slow log %q: %v", slowBuf.String(), err)
	}
	if slowRec.TraceID != tpTraceID || len(slowRec.SpanID) != 16 {
		t.Fatalf("slow-log record: %s", slowBuf.String())
	}

	// Surface 4: the access log line for the query route.
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var l struct {
			Stream    string `json:"stream"`
			Route     string `json:"route"`
			TraceID   string `json:"trace_id"`
			RequestID string `json:"request_id"`
			Kind      string `json:"kind"`
			Graph     string `json:"graph"`
			Admission string `json:"admission"`
			Status    int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if l.Stream == "access" && l.Route == "query" && l.TraceID == tpTraceID {
			found = true
			if l.Status != 200 || l.Kind != "exist" || l.Graph != "g" ||
				l.Admission != "ok" || l.RequestID != rec.Header().Get("X-RPQ-Request-Id") {
				t.Fatalf("traced access line: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("no access line for trace %s:\n%s", tpTraceID, logBuf.String())
	}

}
