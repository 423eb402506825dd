package rpq

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rpq/internal/obs"
)

// telemetryGraph builds a graph large enough that a query over it makes
// hundreds of worklist pops (so progress callbacks fire) and allocates
// measurably.
func telemetryGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	const n = 400
	vtx := func(i int) string { return fmt.Sprintf("v%d", i) }
	for i := 0; i < n; i++ {
		g.MustAddEdge(vtx(i), fmt.Sprintf("def(x%d)", i%7), vtx(i+1))
		if i%3 == 0 {
			g.MustAddEdge(vtx(i), fmt.Sprintf("use(x%d)", i%7), vtx((i+13)%n))
		}
	}
	g.MustAddEdge(vtx(n), "use(x0)", vtx(0))
	g.SetStart(vtx(0))
	return g
}

func TestStatsResourceAttribution(t *testing.T) {
	g := telemetryGraph(t)
	p := MustParsePattern("_* use(x)")
	res, err := g.Exist(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AllocBytes <= 0 {
		t.Fatalf("Stats.AllocBytes = %d, want > 0", res.Stats.AllocBytes)
	}
	if res.Stats.CPUTime < 0 {
		t.Fatalf("Stats.CPUTime = %v, want >= 0", res.Stats.CPUTime)
	}
	// Where getrusage works, repeated runs must eventually show CPU time:
	// the counter advances at scheduler-tick granularity, so accumulate.
	if obs.ProcessCPUTime() > 0 {
		var total time.Duration
		for i := 0; i < 50 && total == 0; i++ {
			r, err := g.Exist(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += r.Stats.CPUTime
		}
		if total == 0 {
			t.Error("Stats.CPUTime stayed 0 across 50 runs on a getrusage platform")
		}
	}
}

func TestExplainAndGaugesCarryAttribution(t *testing.T) {
	g := telemetryGraph(t)
	before := scrapeSample(t, obs.Default(), "rpq_alloc_bytes_total")
	res, err := g.Exist(MustParsePattern("_* use(x)"), &Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil {
		t.Fatal("no explain profile")
	}
	if d := scrapeSample(t, obs.Default(), "rpq_alloc_bytes_total") - before; d <= 0 || d < float64(res.Stats.AllocBytes) {
		t.Fatalf("rpq_alloc_bytes_total advanced by %v, want > 0 and >= Stats.AllocBytes %d",
			d, res.Stats.AllocBytes)
	}
}

func TestSlowLogCarriesAttribution(t *testing.T) {
	g := telemetryGraph(t)
	var buf bytes.Buffer
	opts := &Options{SlowLog: NewSlowLog(&buf, 0)} // threshold 0: log everything
	if _, err := g.Exist(MustParsePattern("_* use(x)"), opts); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"alloc_bytes":`) {
		t.Fatalf("slow record missing alloc_bytes: %s", line)
	}
	if !strings.Contains(line, `"cpu_ns"`) && !strings.Contains(line, `"cpu_ms"`) {
		t.Fatalf("slow record missing cpu attribution: %s", line)
	}
}

func TestInflightSnapshotCarriesAttribution(t *testing.T) {
	g := telemetryGraph(t)
	var got atomic.Value // QuerySnapshot
	opts := &Options{Progress: func(Progress) {
		if got.Load() != nil {
			return
		}
		if qs := InflightQueries(); len(qs) > 0 {
			got.Store(qs[0])
		}
	}}
	if _, err := g.Exist(MustParsePattern("_* use(x)"), opts); err != nil {
		t.Fatal(err)
	}
	snap, ok := got.Load().(QuerySnapshot)
	if !ok {
		t.Skip("progress callback never fired (query too small)")
	}
	if snap.AllocBytes <= 0 {
		t.Fatalf("in-flight AllocBytes = %d, want > 0", snap.AllocBytes)
	}
	if snap.CPUMS < 0 {
		t.Fatalf("in-flight CPUMS = %v, want >= 0", snap.CPUMS)
	}
}

// TestInflightCountersNeverDecrease reads the query's in-flight snapshot
// from inside every progress callback of a hybrid universal run (a worklist
// solve, then an enumeration phase) and requires pops and enum_substs to
// be non-decreasing across the phase change, as /debug/rpq/queries shows
// them. The Auto case requires the same across the fallback from a failed
// direct run to hybrid, and the snapshot's algo to follow the fallback.
func TestInflightCountersNeverDecrease(t *testing.T) {
	g := telemetryGraph(t)
	var id int64
	var last QuerySnapshot
	phases := map[string]bool{}
	opts := &Options{
		Algorithm: Hybrid,
		OnBegin:   func(qid int64) { id = qid },
		Progress: func(p Progress) {
			for _, s := range InflightQueries() {
				if s.ID != id {
					continue
				}
				if s.Pops < last.Pops || s.EnumSubsts < last.EnumSubsts {
					t.Fatalf("in-flight counters went backwards entering %s: pops %d -> %d, enum_substs %d -> %d",
						s.Phase, last.Pops, s.Pops, last.EnumSubsts, s.EnumSubsts)
				}
				last = s
				phases[s.Phase] = true
			}
		},
	}
	if _, err := g.Universal(MustParsePattern("_* use(x)"), opts); err != nil {
		t.Fatal(err)
	}
	if !phases["solve"] || !phases["enumerate"] {
		t.Fatalf("progress phases seen = %v, want solve and enumerate", phases)
	}
	if last.Pops == 0 || last.EnumSubsts == 0 {
		t.Fatalf("final in-flight snapshot has pops %d, enum_substs %d; want both > 0", last.Pops, last.EnumSubsts)
	}

	t.Run("Auto", func(t *testing.T) {
		// 600 def edges lead to the first use edge, where _* use(x) fails
		// the determinism check, so the direct run delivers snapshots
		// before Auto falls back to hybrid.
		g := NewGraph()
		const n = 600
		vtx := func(i int) string { return fmt.Sprintf("v%d", i) }
		for i := 0; i < n; i++ {
			g.MustAddEdge(vtx(i), fmt.Sprintf("def(x%d)", i%7), vtx(i+1))
		}
		g.MustAddEdge(vtx(n), "use(x0)", vtx(n+1))
		g.MustAddEdge(vtx(n+1), "use(x1)", vtx(n+2))
		g.SetStart(vtx(0))
		var id int64
		var last QuerySnapshot
		algos := map[string]bool{}
		opts := &Options{
			Algorithm: Auto,
			OnBegin:   func(qid int64) { id = qid },
			Progress: func(p Progress) {
				for _, s := range InflightQueries() {
					if s.ID != id {
						continue
					}
					if s.Pops < last.Pops || s.EnumSubsts < last.EnumSubsts {
						t.Fatalf("in-flight counters went backwards (%s, %s): pops %d -> %d, enum_substs %d -> %d",
							s.Algo, s.Phase, last.Pops, s.Pops, last.EnumSubsts, s.EnumSubsts)
					}
					last = s
					algos[s.Algo] = true
				}
			},
		}
		if _, err := g.Universal(MustParsePattern("_* use(x)"), opts); err != nil {
			t.Fatal(err)
		}
		if !algos["basic"] {
			t.Fatalf("algos seen = %v: the direct run delivered no snapshot", algos)
		}
		if last.Algo != "hybrid" || last.EnumSubsts == 0 {
			t.Fatalf("final in-flight snapshot has algo %q, enum_substs %d; want hybrid, > 0", last.Algo, last.EnumSubsts)
		}
	})
}

// TestGoroutineProfileHasQueryLabels asserts the pprof label plumbing
// deterministically: a goroutine profile taken while a query runs must show
// the rpq_query_id label on the solver goroutine, and, for a query run
// under a trace context, the rpq_trace_id label with that trace's ID.
func TestGoroutineProfileHasQueryLabels(t *testing.T) {
	g := telemetryGraph(t)
	tc := obs.NewTraceContext()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want []string
	}{
		{"untraced", context.Background(), []string{`"rpq_query_id":`, `"rpq_kind":"exist"`, `"variant":`, `"table":`}},
		{"traced", obs.WithTrace(context.Background(), tc), []string{`"rpq_query_id":`, `"rpq_trace_id":"` + tc.TraceIDString() + `"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var prof atomic.Value // string
			opts := &Options{Progress: func(Progress) {
				if prof.Load() != nil {
					return
				}
				var buf bytes.Buffer
				// debug=1 renders labels as "labels: {...}" per goroutine.
				pprof.Lookup("goroutine").WriteTo(&buf, 1)
				prof.Store(buf.String())
			}}
			if _, err := g.ExistContext(c.ctx, MustParsePattern("_* use(x)"), opts); err != nil {
				t.Fatal(err)
			}
			text, ok := prof.Load().(string)
			if !ok {
				t.Skip("progress callback never fired (query too small)")
			}
			for _, want := range c.want {
				if !strings.Contains(text, want) {
					t.Errorf("goroutine profile missing label %s", want)
				}
			}
		})
	}
}

// TestCPUProfileHasQueryLabels runs a busy multi-query workload under the
// CPU profiler and checks the raw profile mentions the query-id label key.
// The profile is sample-based, so an unlucky profiler run with zero samples
// skips rather than fails.
func TestCPUProfileHasQueryLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling workload skipped in -short")
	}
	g := telemetryGraph(t)
	p := MustParsePattern("_* use(x)")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := g.Exist(p, nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("profile not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}
	if len(raw) == 0 {
		t.Skip("empty CPU profile")
	}
	// Label keys are stored in the profile string table verbatim.
	if !bytes.Contains(raw, []byte("rpq_query_id")) {
		t.Error("CPU profile has no rpq_query_id label")
	}
}

func TestServeObservabilityWith(t *testing.T) {
	srv, err := ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	g := telemetryGraph(t)
	if _, err := g.Exist(MustParsePattern("_* use(x)"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Universal(MustParsePattern("_* def(x) (!def(x))*"), nil); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// The /debug/rpq/ index describes every surface; each answers 200 with
	// a body, and / lists exactly the index paths.
	code, body := get("/debug/rpq/")
	if code != http.StatusOK {
		t.Fatalf("/debug/rpq/: HTTP %d", code)
	}
	var index struct {
		Schema   string `json:"schema"`
		Surfaces []struct {
			Path string `json:"path"`
			Desc string `json:"desc"`
		} `json:"surfaces"`
	}
	if err := json.Unmarshal(body, &index); err != nil || index.Schema != "rpq-debug/2" {
		t.Fatalf("/debug/rpq/: schema %q, err %v", index.Schema, err)
	}
	var paths []string
	rootList := "rpq observability\n\n"
	for _, s := range index.Surfaces {
		paths = append(paths, s.Path)
		rootList += s.Path + "\n"
		if s.Desc == "" {
			t.Errorf("/debug/rpq/: surface %s has no description", s.Path)
		}
		if code, body := get(s.Path); code != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: HTTP %d, %d bytes", s.Path, code, len(body))
		}
	}
	if want := "/metrics /debug/rpq/ /debug/rpq/queries /debug/pprof/"; strings.Join(paths, " ") != want {
		t.Errorf("/debug/rpq/ lists %v, want %s", paths, want)
	}
	if code, body := get("/"); code != http.StatusOK || string(body) != rootList {
		t.Errorf("/: HTTP %d\n%s\nwant\n%s", code, body, rootList)
	}
	// The time-series, burn-rate and dashboard routes are gone; /metrics
	// is the one telemetry surface, so the expvar mirror and the exemplar
	// listing are gone too. The continuous-profiler route is gone;
	// /debug/pprof/ is the one profile surface.
	for _, p := range []string{"/debug/rpq/ts", "/debug/rpq/slo", "/debug/rpq/dash", "/debug/rpq/prof",
		"/debug/rpq/exemplars", "/debug/vars"} {
		if code, _ := get(p); code != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", p, code)
		}
	}

	// The runtime gauges are read at scrape time, and each latency is one
	// histogram family. A query's live state is served only by
	// /debug/rpq/queries, and its count only by rpq_query_seconds_count:
	// the running-query gauges and rpq_queries_total are gone.
	_, metrics := get("/metrics")
	for _, want := range []string{"go_goroutines ", "# TYPE rpq_query_seconds histogram\n",
		"# TYPE rpq_alloc_bytes_total counter\n"} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{"quantile=", "_hist", "# {", "rpq_worklist_depth", "rpq_reach_size",
		"rpq_substs_interned", "rpq_table_bytes", "rpq_enum_substs", "rpq_queries_total"} {
		if bytes.Contains(metrics, []byte(gone)) {
			t.Errorf("/metrics still carries %q", gone)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
