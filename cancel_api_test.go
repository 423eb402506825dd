package rpq

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
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

// TestWatchdogBundlePublic forces a deadline breach with a watchdog attached
// and requires a loadable bundle plus a slow-log record pointing at it.
func TestWatchdogBundlePublic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	dir := t.TempDir()
	var slow strings.Builder
	opts := &Options{
		Deadline: time.Nanosecond,
		Watchdog: &Watchdog{Dir: dir},
		SlowLog:  NewSlowLog(&slow, 0),
		Explain:  true,
	}
	_, err := g.Exist(p, opts)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want deadline breach", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil || len(entries) != 1 {
		t.Fatalf("bundle dir entries = %v (%v), want exactly 1", entries, rerr)
	}
	b, lerr := LoadBundle(dir + "/" + entries[0].Name())
	if lerr != nil {
		t.Fatal(lerr)
	}
	if b.Meta.Reason != "deadline" || b.Meta.Query.Kind != "exist" {
		t.Fatalf("bundle meta = %+v", b.Meta)
	}
	if b.Explain == nil {
		t.Fatal("bundle missing partial explain profile")
	}
	if !strings.Contains(slow.String(), entries[0].Name()) {
		t.Fatalf("slow-log record does not reference the bundle: %s", slow.String())
	}
}

// TestWatchdogSlowBundle checks the slow-run trigger on a successful query.
func TestWatchdogSlowBundle(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	dir := t.TempDir()
	res, err := g.Exist(p, &Options{Watchdog: &Watchdog{Dir: dir, Slow: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("query returned no answers")
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil || len(entries) != 1 {
		t.Fatalf("bundle dir entries = %v (%v), want exactly 1", entries, rerr)
	}
	b, lerr := LoadBundle(dir + "/" + entries[0].Name())
	if lerr != nil {
		t.Fatal(lerr)
	}
	if b.Meta.Reason != "slow" {
		t.Fatalf("reason = %q, want slow", b.Meta.Reason)
	}
	// meta.json carries the query's last progress snapshot: the worklist
	// drained, so the solve phase and its pops are recorded.
	if q := b.Meta.Query; q.Phase != "solve" || q.Pops == 0 || q.Reach == 0 {
		t.Fatalf("bundle progress snapshot = %+v, want phase solve with pops and reach", q)
	}
}

// TestLatencyHistogramsPublic checks that a run with gauges feeds the query
// and phase histograms.
func TestLatencyHistogramsPublic(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	gauges := LiveGauges()
	before := gauges.QueryHist.Count()
	if _, err := g.Exist(p, &Options{Gauges: gauges}); err != nil {
		t.Fatal(err)
	}
	if got := gauges.QueryHist.Count(); got != before+1 {
		t.Fatalf("QueryHist count = %d, want %d", got, before+1)
	}
	if gauges.SolveHist.Count() == 0 {
		t.Fatal("SolveHist never observed")
	}
}
