package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zero quantiles")
	}
	// 90 samples at ~100µs, 10 at ~10ms: p50 lands in the 64–128µs bucket,
	// p99 in the 8.192–16.384ms bucket.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if p50 := h.Quantile(0.50); p50 < 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want within the 64–128µs bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 8*time.Millisecond || p99 > 17*time.Millisecond {
		t.Fatalf("p99 = %v, want within the 8.192–16.384ms bucket", p99)
	}
	wantSum := 90*100*time.Microsecond + 10*10*time.Millisecond
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum = %v, want %v", got, wantSum)
	}

	// Nearest rank is ceil(q·n): with 9 fast samples and 1 slow one, p99
	// (rank ceil(9.9) = 10) is the slow sample, not the ninth fast one.
	small := &Histogram{}
	for i := 0; i < 9; i++ {
		small.Observe(10 * time.Microsecond)
	}
	small.Observe(10 * time.Millisecond)
	if p99 := small.Quantile(0.99); p99 < 8*time.Millisecond || p99 > 17*time.Millisecond {
		t.Fatalf("p99 of 9×10µs + 1×10ms = %v, want within the 8.192–16.384ms bucket", p99)
	}
	if p90 := small.Quantile(0.90); p90 > 16*time.Microsecond {
		t.Fatalf("p90 of 9×10µs + 1×10ms = %v, want within the 8–16µs bucket", p90)
	}
}

func TestHistogramConcurrency(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				h.Quantile(0.95)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

func TestRegistryHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rpq_test_seconds", "test latency")
	h.Observe(2 * time.Millisecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE rpq_test_seconds summary",
		`rpq_test_seconds{quantile="0.5"}`,
		`rpq_test_seconds{quantile="0.99"}`,
		"rpq_test_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	snap := r.Snapshot()
	if snap["rpq_test_seconds_count"] != 1 {
		t.Fatalf("snapshot count = %d, want 1", snap["rpq_test_seconds_count"])
	}
	if snap["rpq_test_seconds_p50_us"] <= 0 {
		t.Fatal("snapshot p50 missing")
	}
}

func TestInflightLifecycle(t *testing.T) {
	reg := NewInflight()
	q := reg.Begin("exist", "(!def(x))* use(x)", "memo", TraceContext{})
	if reg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", reg.Len())
	}
	q.Update(Progress{Phase: "solve", Pops: 512, WorklistDepth: 17, Reach: 900, Substs: 12})
	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("Snapshots = %d entries, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Kind != "exist" || s.Algo != "memo" || s.Phase != "solve" {
		t.Fatalf("snapshot identity wrong: %+v", s)
	}
	if s.Pops != 512 || s.Depth != 17 || s.Reach != 900 || s.Substs != 12 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	if s.EnumSubsts != 0 {
		t.Fatalf("enum_substs = %d, want 0", s.EnumSubsts)
	}
	q.Done()
	q.Done() // idempotent
	if reg.Len() != 0 {
		t.Fatalf("Len after Done = %d, want 0", reg.Len())
	}
}

func TestWatchdogDumpAndLoad(t *testing.T) {
	dir := t.TempDir()
	var notified string
	wd := &Watchdog{Dir: dir, OnBundle: func(p string) { notified = p }}

	reg := NewInflight()
	q := reg.Begin("exist", "_* use(x)", "basic", TraceContext{})
	q.Ring = NewRingSink(8)
	for i := 0; i < 12; i++ { // overflow the ring: only the last 8 survive
		q.Ring.Emit(Ev(KCounter, "pops", int64(i)))
	}
	q.Update(Progress{Phase: "solve", Pops: 12, WorklistDepth: 3, Reach: 40, Substs: 5})

	path, err := wd.Dump(q, "deadline", map[string]int{"visits": 40})
	if err != nil {
		t.Fatal(err)
	}
	if notified != path {
		t.Fatalf("OnBundle got %q, want %q", notified, path)
	}

	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Schema != BundleSchema || b.Meta.Reason != "deadline" {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if b.Meta.Query.Pops != 12 || b.Meta.Query.Phase != "solve" {
		t.Fatalf("bundle snapshot = %+v", b.Meta.Query)
	}
	if len(b.Events) != 8 || b.Meta.RingTotal != 12 {
		t.Fatalf("events = %d (ring total %d), want 8 retained of 12", len(b.Events), b.Meta.RingTotal)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("goroutines.txt missing stack dump")
	}
	if b.Explain == nil || b.Explain["visits"] != float64(40) {
		t.Fatalf("explain.json = %v", b.Explain)
	}
	if _, err := os.Stat(filepath.Join(path, "heap.pprof")); err != nil {
		t.Fatalf("heap profile missing: %v", err)
	}
}

func TestWatchdogPrune(t *testing.T) {
	dir := t.TempDir()
	wd := &Watchdog{Dir: dir, MaxBundles: 2}
	reg := NewInflight()
	for i := 0; i < 4; i++ {
		q := reg.Begin("exist", "p", "basic", TraceContext{})
		if _, err := wd.Dump(q, "slow", nil); err != nil {
			t.Fatal(err)
		}
		q.Done()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d bundles kept, want 2", len(entries))
	}
}

func TestWatchdogArm(t *testing.T) {
	dir := t.TempDir()
	fired := make(chan string, 1)
	wd := &Watchdog{Dir: dir, Hung: 10 * time.Millisecond, OnBundle: func(p string) { fired <- p }}
	reg := NewInflight()

	// Timer fires for a query that outlives Hung.
	q := reg.Begin("exist", "p", "basic", TraceContext{})
	stop := wd.Arm(q)
	select {
	case p := <-fired:
		if b, err := LoadBundle(p); err != nil || b.Meta.Reason != "hung" {
			t.Fatalf("bundle %q load: %v (reason %q)", p, err, b.Meta.Reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hung timer never fired")
	}
	stop()
	q.Done()

	// Stopped in time: no bundle.
	q2 := reg.Begin("exist", "p2", "basic", TraceContext{})
	stop2 := wd.Arm(q2)
	stop2()
	q2.Done()
	select {
	case p := <-fired:
		t.Fatalf("stopped timer still dumped %q", p)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestQueriesEndpoint(t *testing.T) {
	srv, err := Serve("localhost:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	q := DefaultInflight().Begin("universal", "(a b)*", "enumeration", TraceContext{})
	q.Update(Progress{Phase: "enumerate", EnumSubsts: 7})
	defer q.Done()

	resp, err := http.Get("http://" + srv.Addr + "/debug/rpq/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body struct {
		Queries []QuerySnapshot `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range body.Queries {
		if s.Kind == "universal" && s.Query == "(a b)*" && s.EnumSubsts == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-flight query missing from endpoint: %+v", body.Queries)
	}
}

func TestQueriesEndpointEmpty(t *testing.T) {
	srv, err := Serve("localhost:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/debug/rpq/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var body struct {
		Queries []QuerySnapshot `json:"queries"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	// No in-flight queries from this test; the key must still decode as a
	// (possibly empty) array, never null.
	if !strings.Contains(string(raw), `"queries"`) {
		t.Fatalf("missing queries key: %s", raw)
	}
}

func TestSlowLogBundleField(t *testing.T) {
	var b strings.Builder
	l := NewSlowLog(&b, 0)
	q := NewInflight().Begin("exist", "p", "basic", TraceContext{})
	l.Observe(q, Usage{Wall: time.Second}, 3, "", nil, nil, "/tmp/x/bundle-1")
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["bundle"] != "/tmp/x/bundle-1" {
		t.Fatalf("bundle field = %v", rec["bundle"])
	}

	b.Reset()
	l2 := NewSlowLog(&b, 0)
	l2.Observe(q, Usage{Wall: time.Second}, 3, "", nil, nil, "")
	if strings.Contains(b.String(), "bundle") {
		t.Fatalf("empty bundle should be omitted: %s", b.String())
	}
}

func TestInflightConcurrency(t *testing.T) {
	reg := NewInflight()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := reg.Begin("exist", fmt.Sprintf("q%d", w), "memo", TraceContext{})
				q.Update(Progress{Phase: "solve", Pops: int64(i)})
				reg.Snapshots()
				q.Done()
			}
		}(w)
	}
	wg.Wait()
	if reg.Len() != 0 {
		t.Fatalf("Len = %d after all Done", reg.Len())
	}
}
