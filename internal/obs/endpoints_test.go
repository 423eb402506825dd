package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestServer brings up the full endpoint set on an ephemeral port with
// a fast sampler and time-series store, and tears everything down with the
// test.
func startTestServer(t *testing.T) (base string, reg *Registry, ts *TimeSeries) {
	t.Helper()
	reg = NewRegistry()
	sampler := NewRuntimeSampler(reg, 5*time.Millisecond)
	ts = NewTimeSeries(reg, TimeSeriesOptions{Interval: 5 * time.Millisecond, Retention: time.Second})
	ts.WatchInflight(DefaultInflight())
	srv, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: reg, TimeSeries: ts})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	sampler.Start()
	ts.Start()
	t.Cleanup(func() {
		ts.Stop()
		sampler.Stop()
		srv.Close()
	})
	return "http://" + srv.Addr, reg, ts
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestEndpointsUnderConcurrentLoad hammers every endpoint while synthetic
// queries register, update, and unregister concurrently; run with -race
// this doubles as the data-race check for the whole exposition path.
func TestEndpointsUnderConcurrentLoad(t *testing.T) {
	base, reg, _ := startTestServer(t)
	g := NewSolverGauges(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := DefaultInflight().Begin("exist", "load-test", "memo", TraceContext{})
				q.Update(Progress{Phase: "solve", Pops: int64(i), WorklistDepth: 4, Reach: 9, Substs: 2})
				g.Queries.Add(1)
				g.QueryHist.Observe(time.Duration(i%1000) * time.Microsecond)
				g.Sample(Progress{WorklistDepth: int64(i % 10), Reach: int64(i), Substs: int64(i % 5), Bytes: int64(i * 10)})
				q.Done()
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		for _, path := range []string{"/metrics", "/debug/rpq/queries", "/debug/rpq/ts", "/debug/rpq/dash"} {
			code, body := httpGet(t, base+path)
			if code != http.StatusOK {
				t.Fatalf("%s: HTTP %d", path, code)
			}
			if len(body) == 0 {
				t.Fatalf("%s: empty body", path)
			}
		}
	}
	close(stop)
	wg.Wait()

	_, metricsBody := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"rpq_queries_total",
		"# TYPE rpq_query_seconds summary",
		"# TYPE rpq_query_seconds_hist histogram",
		"rpq_query_seconds_hist_bucket{le=\"+Inf\"}",
		"rpq_cpu_us_total",
		"rpq_alloc_bytes_total",
		"rpq_build_info{",
		"go_goroutines",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	_, tsBody := httpGet(t, base+"/debug/rpq/ts")
	var doc struct {
		Schema string              `json:"schema"`
		Points int                 `json:"points"`
		Stamps []int64             `json:"timestamps_ms"`
		Series map[string][]*int64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(tsBody), &doc); err != nil {
		t.Fatalf("/debug/rpq/ts: %v", err)
	}
	if doc.Schema != TSDBSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if doc.Points != len(doc.Stamps) || doc.Points == 0 {
		t.Fatalf("points = %d, stamps = %d", doc.Points, len(doc.Stamps))
	}
	for name, col := range doc.Series {
		if len(col) != doc.Points {
			t.Fatalf("series %s: %d entries for %d points", name, len(col), doc.Points)
		}
	}
	if _, ok := doc.Series["rpq_inflight_queries"]; !ok {
		t.Error("rpq_inflight_queries series missing")
	}
}

func TestTSEndpointDisabled(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: NewRegistry()})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	defer srv.Close()
	code, body := httpGet(t, "http://"+srv.Addr+"/debug/rpq/ts")
	if code != http.StatusNotImplemented {
		t.Fatalf("disabled /debug/rpq/ts: HTTP %d, want 501", code)
	}
	if !strings.Contains(body, "not enabled") {
		t.Fatalf("unexpected body %q", body)
	}
	// The dashboard still serves; it degrades client-side.
	if code, _ := httpGet(t, "http://"+srv.Addr+"/debug/rpq/dash"); code != http.StatusOK {
		t.Fatalf("/debug/rpq/dash: HTTP %d", code)
	}
}

func TestServerShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry()
	sampler := NewRuntimeSampler(reg, time.Millisecond)
	ts := NewTimeSeries(reg, TimeSeriesOptions{Interval: time.Millisecond, Retention: 100 * time.Millisecond})
	srv, err := ServeWith("127.0.0.1:0", ServeOptions{Registry: reg, TimeSeries: ts})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	sampler.Start()
	ts.Start()
	if code, _ := httpGet(t, "http://"+srv.Addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	ts.Stop()
	sampler.Stop()
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after shutdown", before, n)
	}
}
