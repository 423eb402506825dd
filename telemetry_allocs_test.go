//go:build !race

package rpq

import (
	"context"
	"io"
	"testing"
	"time"

	"rpq/internal/obs"
)

// telemetryAllocsBudget is the pinned allocation count of one small traced
// query with every per-query telemetry surface attached: 189 on go1.24,
// linux/amd64, where the average occasionally rounds down to 188. A rise
// means the telemetry path or the solver grew; lower it when a change makes
// the path leaner.
const telemetryAllocsBudget = 189

// TestTelemetryAllocsPerQuery guards the per-query telemetry path: one
// existential query over the Figure 1 graph with gauges, a slow log whose
// threshold the run never reaches, and a W3C trace context must stay within
// telemetryAllocsBudget allocations, compile and solve included. Race
// instrumentation changes allocation counts, hence the build tag.
func TestTelemetryAllocsPerQuery(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	opts := &Options{
		Gauges:  obs.NewSolverGauges(obs.NewRegistry()),
		SlowLog: NewSlowLog(io.Discard, time.Hour),
	}
	ctx := obs.WithTrace(context.Background(), obs.NewTraceContext())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := g.ExistContext(ctx, p, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per traced query", allocs)
	if allocs > telemetryAllocsBudget {
		t.Errorf("%.0f allocations per traced query, budget %d", allocs, telemetryAllocsBudget)
	}
}
