package rpq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpq/internal/obs"
)

// TestExistContextCanceled checks the public cancellation surface: a
// pre-canceled context yields a typed *InterruptError with partial stats.
func TestExistContextCanceled(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.ExistContext(ctx, p, nil)
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v (%T), want *InterruptError", err, err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrCanceled/context.Canceled", err)
	}
}

// TestDeadlineOptionPublic checks Options.Deadline without a caller context,
// for both query forms.
func TestDeadlineOptionPublic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	_, err := g.Exist(p, &Options{Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exist: %v does not wrap ErrDeadline", err)
	}
	_, err = g.Universal(p, &Options{Algorithm: Enumerate, Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("universal: %v does not wrap ErrDeadline", err)
	}
	_, err = g.Violations("(open(f) close(f))*", false, &Options{Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("violations: %v does not wrap ErrDeadline", err)
	}
}

// TestDeadlineCoversFallback: Options.Deadline bounds the whole query, so
// an Auto universal query that falls back to hybrid shares one deadline
// across both runs instead of starting the second with a fresh one. Each
// algorithm's first progress snapshot sleeps 200ms: 400ms in all, inside
// 300ms for neither run alone but not for the query.
func TestDeadlineCoversFallback(t *testing.T) {
	// 600 def edges lead to the first use edge, where _* use(x) fails the
	// determinism check, so the direct run delivers snapshots before Auto
	// falls back to hybrid.
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
	slept := map[string]bool{}
	opts := &Options{
		Algorithm: Auto,
		Deadline:  300 * time.Millisecond,
		OnBegin:   func(qid int64) { id = qid },
		Progress: func(Progress) {
			for _, s := range InflightQueries() {
				if s.ID == id && !slept[s.Algo] {
					slept[s.Algo] = true
					time.Sleep(200 * time.Millisecond)
				}
			}
		},
	}
	res, err := g.Universal(MustParsePattern("_* use(x)"), opts)
	if !slept["basic"] {
		t.Fatalf("algorithms seen = %v: the direct run delivered no snapshot", slept)
	}
	var ie *InterruptError
	if !errors.As(err, &ie) || !errors.Is(err, ErrDeadline) {
		answers := -1
		if res != nil {
			answers = len(res.Answers)
		}
		t.Fatalf("got %d answers, error %v; want an *InterruptError wrapping ErrDeadline", answers, err)
	}
}

// TestProgressAndInflightPublic runs a query with a Progress callback and
// checks the in-flight registry from inside it — the query must be listed
// mid-run and gone afterwards.
func TestProgressAndInflightPublic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	var calls int
	var sawInflight bool
	_, err := g.Exist(p, &Options{
		Algorithm: Enumerate,
		Progress: func(pr Progress) {
			calls++
			for _, s := range InflightQueries() {
				if s.Kind == "exist" && s.Query == "(!def(x))* use(x)" {
					sawInflight = true
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress callback never fired")
	}
	if !sawInflight {
		t.Fatal("query missing from InflightQueries during its own run")
	}
	for _, s := range InflightQueries() {
		if s.Query == "(!def(x))* use(x)" {
			t.Fatal("query still in-flight after completion")
		}
	}
}

// TestSlowLogRecordsDeadline breaches a 1 ms deadline on a query far below
// the slow-log threshold: the interrupted run still leaves exactly one
// record, naming the reason and carrying the partial stats. The progress
// callback sleeps past the deadline once, so the breach does not depend on
// the machine's speed.
func TestSlowLogRecordsDeadline(t *testing.T) {
	g := telemetryGraph(t)
	p := MustParsePattern("_* use(x)")
	var slow strings.Builder
	sl := NewSlowLog(&slow, time.Hour)
	slept := false
	_, err := g.Exist(p, &Options{
		Deadline: time.Millisecond,
		SlowLog:  sl,
		Progress: func(Progress) {
			if !slept {
				slept = true
				time.Sleep(20 * time.Millisecond)
			}
		},
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want deadline breach", err)
	}
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 1 || sl.Count() != 1 {
		t.Fatalf("slow log = %q (count %d), want exactly one record", slow.String(), sl.Count())
	}
	var rec struct {
		Kind        string `json:"kind"`
		Interrupted string `json:"interrupted"`
		Stats       *struct {
			WorklistInserts int `json:"worklist_inserts"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("decode %q: %v", lines[0], err)
	}
	if rec.Kind != "exist" || rec.Interrupted != "deadline" || rec.Stats == nil || rec.Stats.WorklistInserts == 0 {
		t.Fatalf("slow-log record = %s, want kind exist, interrupted deadline and partial stats", lines[0])
	}

	// A completed run below the threshold writes nothing.
	slow.Reset()
	if _, err := g.Exist(p, &Options{SlowLog: sl}); err != nil {
		t.Fatal(err)
	}
	if slow.Len() != 0 || sl.Count() != 1 {
		t.Fatalf("fast completed run logged: %q", slow.String())
	}
}

// TestLatencyHistogramsPublic checks that every run, a plain library call
// with no options included, feeds the query and phase histograms of the
// process-wide registry.
func TestLatencyHistogramsPublic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	before := scrapeSample(t, obs.Default(), "rpq_query_seconds_count")
	if _, err := g.Exist(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := scrapeSample(t, obs.Default(), "rpq_query_seconds_count"); got != before+1 {
		t.Fatalf("rpq_query_seconds_count = %v, want %v", got, before+1)
	}
	if scrapeSample(t, obs.Default(), "rpq_phase_solve_seconds_count") == 0 {
		t.Fatal("rpq_phase_solve_seconds never observed")
	}
}

// scrapeSample renders reg as /metrics does and returns the value of the
// sample named sample (metric name plus label body); 0 when it is absent.
func scrapeSample(t *testing.T, reg *obs.Registry, sample string) float64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	return 0
}
