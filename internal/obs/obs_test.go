package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("rpq_svc_queued", "requests waiting for a solve slot")
	g.Set(123)
	r.Counter("rpq_svc_requests_total", "API requests accepted").Add(456)
	r.LabeledCounter("rpq_http_slo_good", "SLO-good requests", "route", "query").Add(2)
	if r.Gauge("rpq_svc_queued", "ignored") != g {
		t.Fatal("re-registration returned a new gauge")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP rpq_svc_queued requests waiting for a solve slot",
		"# TYPE rpq_svc_queued gauge",
		"rpq_svc_queued 123",
		"# TYPE rpq_svc_requests_total counter",
		"rpq_svc_requests_total 456",
		"# TYPE rpq_http_slo_good counter",
		`rpq_http_slo_good{route="query"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeConcurrency(t *testing.T) {
	r := NewRegistry()
	queued := r.Gauge("rpq_svc_queued", "")
	requests := r.Counter("rpq_svc_requests_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				queued.Set(int64(j))
				requests.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var buf bytes.Buffer
				r.WritePrometheus(&buf)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := requests.Value(); got != 4000 {
		t.Fatalf("requests = %d, want 4000", got)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("rpq_svc_queued", "d").Set(7)
	srv, err := serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rpq_svc_queued 7") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	// The expvar mirror is gone: /metrics is the one telemetry surface.
	if code, _ := get("/debug/vars"); code != 404 {
		t.Errorf("/debug/vars = %d, want 404", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	reg := NewInflight()
	fast := reg.Begin("exist", "fast", "basic", TraceContext{})
	if l.Observe(fast, Usage{Wall: 2 * time.Millisecond}, 1, "", nil, nil, "") {
		t.Fatal("fast query recorded")
	}
	slow := reg.Begin("exist", "(!def(x))* use(x)", "basic", TraceContext{})
	if !l.Observe(slow, Usage{Wall: 25 * time.Millisecond}, 3, "", map[string]int{"worklist": 9}, nil, "") {
		t.Fatal("slow query not recorded")
	}
	if l.Count() != 1 {
		t.Fatalf("count = %d, want 1", l.Count())
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow record not JSON: %v\n%s", err, buf.String())
	}
	if rec["query"] != "(!def(x))* use(x)" || rec["dur_ms"] != float64(25) || rec["answers"] != float64(3) {
		t.Errorf("record wrong: %v", rec)
	}
	var nilLog *SlowLog
	if nilLog.Observe(slow, Usage{Wall: time.Hour}, 0, "", nil, nil, "") || nilLog.Count() != 0 {
		t.Error("nil SlowLog not a no-op")
	}
}

// TestSlowLogInterrupted: an interrupted run is recorded whatever its
// duration, with its reason; a completed one never carries the field.
func TestSlowLogInterrupted(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, time.Hour)
	q := NewInflight().Begin("exist", "p", "memo", TraceContext{})
	if !l.Observe(q, Usage{Wall: time.Millisecond}, 0, "", nil, nil, "canceled") {
		t.Fatal("fast interrupted query not recorded")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["interrupted"] != "canceled" {
		t.Fatalf("interrupted = %v, want canceled", rec["interrupted"])
	}

	buf.Reset()
	l = NewSlowLog(&buf, 0)
	l.Observe(q, Usage{Wall: time.Second}, 3, "", nil, nil, "")
	if strings.Contains(buf.String(), "interrupted") {
		t.Fatalf("completed run carries interrupted: %s", buf.String())
	}
}
