package obs

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestServer brings up the full endpoint set on an ephemeral port over
// a private registry, and tears it down with the test.
func startTestServer(t *testing.T) (base string, reg *Registry) {
	t.Helper()
	reg = NewRegistry()
	srv, err := serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr, reg
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
	base, reg := startTestServer(t)
	queryHist := reg.Histogram("rpq_query_seconds", "end-to-end query latency")
	cpuTotal := reg.Counter("rpq_cpu_us_total", "CPU attributed to completed queries")

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
				queryHist.Observe(time.Duration(i%1000) * time.Microsecond)
				cpuTotal.Add(int64(i % 7))
				q.Done()
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		for _, path := range []string{"/metrics", "/debug/rpq/queries", "/debug/rpq/"} {
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
		"# TYPE rpq_query_seconds histogram",
		"rpq_query_seconds_bucket{le=\"+Inf\"}",
		"# TYPE rpq_cpu_us_total counter",
		"rpq_build_info{",
		"go_goroutines",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServerShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if code, _ := httpGet(t, "http://"+srv.Addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after shutdown", before, n)
	}
}
