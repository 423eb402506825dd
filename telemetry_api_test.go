package rpq

import (
	"bytes"
	"compress/gzip"
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
	reg := obs.NewRegistry()
	gauges := obs.NewSolverGauges(reg)
	opts := &Options{Explain: true, Gauges: gauges}
	res, err := g.Exist(MustParsePattern("_* use(x)"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil {
		t.Fatal("no explain profile")
	}
	if res.Explain.AllocBytes != res.Stats.AllocBytes {
		t.Fatalf("Explain.AllocBytes = %d, Stats.AllocBytes = %d",
			res.Explain.AllocBytes, res.Stats.AllocBytes)
	}
	snap := reg.Snapshot()
	if snap["rpq_alloc_bytes_total"] <= 0 {
		t.Fatalf("rpq_alloc_bytes_total = %d, want > 0", snap["rpq_alloc_bytes_total"])
	}
	if snap["rpq_queries_total"] != 1 {
		t.Fatalf("rpq_queries_total = %d, want 1", snap["rpq_queries_total"])
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
// them.
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
}

// TestGoroutineProfileHasQueryLabels asserts the pprof label plumbing
// deterministically: a goroutine profile taken while a query runs must show
// the rpq_query_id label on the solver goroutine.
func TestGoroutineProfileHasQueryLabels(t *testing.T) {
	g := telemetryGraph(t)
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
	if _, err := g.Exist(MustParsePattern("_* use(x)"), opts); err != nil {
		t.Fatal(err)
	}
	text, ok := prof.Load().(string)
	if !ok {
		t.Skip("progress callback never fired (query too small)")
	}
	for _, want := range []string{`"rpq_query_id":`, `"rpq_kind":"exist"`, `"variant":`, `"table":`} {
		if !strings.Contains(text, want) {
			t.Errorf("goroutine profile missing label %s", want)
		}
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
	srv, err := ServeObservabilityWith("127.0.0.1:0", ObservabilityConfig{
		SampleInterval: 5 * time.Millisecond,
		TSInterval:     5 * time.Millisecond,
		Retention:      time.Second,
		SLOs:           []SLO{{Route: "query", Objective: 0.999}},
		Profiling:      &ProfilingConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Server.Addr

	g := telemetryGraph(t)
	opts := &Options{Gauges: LiveGauges()}
	if _, err := g.Exist(MustParsePattern("_* use(x)"), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Universal(MustParsePattern("_* def(x) (!def(x))*"), opts); err != nil {
		t.Fatal(err)
	}
	srv.Sampler.SampleOnce()
	srv.TS.Record()

	bodies := map[string][]byte{}
	for _, path := range []string{"/metrics", "/debug/rpq/queries", "/debug/rpq/ts", "/debug/rpq/dash", "/debug/rpq/", "/debug/rpq/slo"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
		bodies[path] = body
	}

	// The /debug/rpq/ index describes every surface and lists the
	// profiler as enabled; the SLO report carries its schema.
	var index struct {
		Schema   string `json:"schema"`
		Surfaces []struct {
			Path    string `json:"path"`
			Desc    string `json:"desc"`
			Enabled bool   `json:"enabled"`
		} `json:"surfaces"`
	}
	if err := json.Unmarshal(bodies["/debug/rpq/"], &index); err != nil || index.Schema != "rpq-debug/1" {
		t.Fatalf("/debug/rpq/: schema %q, err %v", index.Schema, err)
	}
	profEnabled := false
	for _, s := range index.Surfaces {
		if s.Desc == "" {
			t.Errorf("/debug/rpq/: surface %s has no description", s.Path)
		}
		if s.Path == "/debug/rpq/prof" {
			profEnabled = s.Enabled
		}
	}
	if !profEnabled {
		t.Fatalf("/debug/rpq/ does not list /debug/rpq/prof as enabled: %s", bodies["/debug/rpq/"])
	}
	var slo struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(bodies["/debug/rpq/slo"], &slo); err != nil || slo.Schema != "rpq-slo/1" {
		t.Fatalf("/debug/rpq/slo: schema %q, err %v", slo.Schema, err)
	}

	// The rpq-tsdb/1 window stays within its retention bound, its
	// timestamps never decrease, and the query counter advanced.
	var doc struct {
		RetentionPoints int                 `json:"retention_points"`
		Points          int                 `json:"points"`
		TimestampsMS    []int64             `json:"timestamps_ms"`
		Series          map[string][]*int64 `json:"series"`
	}
	if err := json.Unmarshal(bodies["/debug/rpq/ts"], &doc); err != nil {
		t.Fatalf("/debug/rpq/ts: bad JSON: %v", err)
	}
	if doc.Points == 0 || doc.Points > doc.RetentionPoints {
		t.Fatalf("/debug/rpq/ts: points=%d, retention_points=%d", doc.Points, doc.RetentionPoints)
	}
	for i := 1; i < len(doc.TimestampsMS); i++ {
		if doc.TimestampsMS[i] < doc.TimestampsMS[i-1] {
			t.Fatalf("/debug/rpq/ts: timestamps decrease at %d", i)
		}
	}
	qt := doc.Series["rpq_queries_total"]
	if len(qt) == 0 || qt[len(qt)-1] == nil || *qt[len(qt)-1] <= 0 {
		t.Fatalf("/debug/rpq/ts: last rpq_queries_total point = %v, want > 0", qt)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent (defer above runs it again harmlessly).
}

func TestObservabilityConfigDisables(t *testing.T) {
	srv, err := ServeObservabilityWith("127.0.0.1:0", ObservabilityConfig{
		SampleInterval: -1,
		TSInterval:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Sampler != nil || srv.TS != nil {
		t.Fatal("negative intervals must disable sampler and time-series store")
	}
	resp, err := http.Get("http://" + srv.Server.Addr + "/debug/rpq/ts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/debug/rpq/ts with store disabled: HTTP %d, want 501", resp.StatusCode)
	}
}
