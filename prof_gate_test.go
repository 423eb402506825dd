package rpq

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rpq/internal/obs"
	"rpq/internal/prof"
)

// chainGraph builds a start→v1→…→vn chain of distinct use edges; the
// uninitialized-use pattern visits every prefix, so query time grows with n.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.MustAddEdge(fmt.Sprintf("v%d", i), fmt.Sprintf("use(a%d)", i%512), fmt.Sprintf("v%d", i+1))
	}
	g.SetStart("v0")
	return g
}

// newestBundle loads the most recently written bundle under dir.
func newestBundle(t *testing.T, dir string) *Bundle {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no bundles in %s: %v", dir, err)
	}
	newest, mod := "", time.Time{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		if newest == "" || info.ModTime().After(mod) {
			newest, mod = e.Name(), info.ModTime()
		}
	}
	b, err := LoadBundle(dir + "/" + newest)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWatchdogBundleLinksProfileWindow is the gate test for the
// watchdog↔profiler link: a slow query run under a continuous profiler must
// produce a watchdog bundle whose profile.pb.gz carries CPU samples
// labeled with that query's trace ID — even though the watchdog fires while
// the profile window is still being captured (the pin cuts it short).
func TestWatchdogBundleLinksProfileWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("gate test burns CPU for profile samples")
	}

	// window == interval keeps a capture in flight continuously, so the
	// watchdog always pins mid-capture.
	p := prof.New(prof.Options{
		Window:   30 * time.Second,
		Interval: 30 * time.Second,
		Registry: obs.NewRegistry(),
	})
	p.Start()
	defer p.Stop()

	dir := t.TempDir()
	pat := MustParsePattern("(!def(x))* use(x)")
	opts := &Options{Watchdog: &Watchdog{Dir: dir, Slow: time.Nanosecond, Profiler: p}}

	n := 1 << 16 // ~150ms per run; doubled when the sampler comes up empty
	g := chainGraph(t, n)
	sawSamples := false
	for attempt := 0; attempt < 6; attempt++ {
		tc := obs.NewTraceContext()
		ctx := obs.WithTrace(context.Background(), tc)
		if _, err := g.ExistContext(ctx, pat, opts); err != nil {
			t.Fatal(err)
		}

		b := newestBundle(t, dir)
		if len(b.Profile) == 0 {
			// The pinned window had no CPU bytes: a competing CPU profile
			// (e.g. go test -cpuprofile) owns the runtime's only slot.
			if w, ok := p.Store().Latest(); ok && w.Err != "" {
				t.Skipf("cpu capture unavailable: %s", w.Err)
			}
			continue
		}
		if b.Meta.ProfileWindow == 0 {
			t.Fatal("bundle has profile.pb.gz but meta.profile_window is unset")
		}
		pr, err := prof.ParseProfile(b.Profile)
		if err != nil {
			t.Fatalf("bundle profile does not decode: %v", err)
		}
		if len(pr.Samples) > 0 {
			sawSamples = true
		}
		for _, s := range pr.Samples {
			if s.Labels["rpq_trace_id"] == tc.TraceIDString() {
				// The full label set from the query's pprof.Do must ride along.
				if s.Labels["rpq_kind"] != "exist" {
					t.Fatalf("traced sample lacks rpq_kind: %v", s.Labels)
				}
				if !strings.HasPrefix(b.Meta.Reason, "slow") {
					t.Fatalf("bundle reason = %q", b.Meta.Reason)
				}
				return
			}
		}
		// Sampled, but our query was too quick for the 100Hz profiler to
		// catch. Double the workload and try again.
		n *= 2
		g = chainGraph(t, n)
	}
	if !sawSamples {
		t.Skip("profiler produced no CPU samples at all; machine too starved to gate on")
	}
	t.Fatal("no bundle profile carried the query's rpq_trace_id label")
}
