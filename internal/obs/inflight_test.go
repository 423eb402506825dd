package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramConcurrency(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				h.snapshot()
			}
		}()
	}
	wg.Wait()
	if _, got, _ := h.snapshot(); got != 8000 {
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
		"# TYPE rpq_test_seconds histogram\n",
		"rpq_test_seconds_bucket{le=\"0.001024\"} 0\n",
		"rpq_test_seconds_bucket{le=\"0.002048\"} 1\n",
		"rpq_test_seconds_bucket{le=\"+Inf\"} 1\n",
		"rpq_test_seconds_sum 0.002\n",
		"rpq_test_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One family per histogram: no summary quantiles, no _hist twin.
	for _, gone := range []string{"quantile=", "_hist"} {
		if strings.Contains(out, gone) {
			t.Fatalf("exposition still carries %q:\n%s", gone, out)
		}
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

func TestQueriesEndpoint(t *testing.T) {
	srv, err := Serve("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	q := DefaultInflight().Begin("universal", "(a b)*", "enum", TraceContext{})
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
	srv, err := Serve("localhost:0")
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
