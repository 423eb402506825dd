// Observe: running an intrusion-detection query with the observability
// layer attached — a ring-buffer tracer capturing the solver's lifecycle
// events, live gauges, the per-phase timing breakdown recorded in
// core.Stats, and a deadline-bounded rerun showing cancellation with
// partial statistics. See docs/observability.md for the full surface
// (Chrome traces, NDJSON streams, Prometheus /metrics, pprof, watchdog
// bundles).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"rpq/internal/core"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/tracelog"
)

const audit = `
# interleaved multi-user audit log
login(alice)
login(mallory)
open(passwd, alice)
read(passwd, alice)
close(passwd, alice)
open(shadow, mallory)
su(root, mallory)
exec(shell, mallory)
close(shadow, mallory)
logout(alice)
download(rootkit, mallory)
exec(rootkit, mallory)
logout(mallory)
`

func main() {
	g, err := tracelog.ReadString(audit)
	if err != nil {
		log.Fatal(err)
	}

	// A ring buffer keeps the last N structured events in memory; gauges
	// expose live solver state (and back /metrics when obs.Serve is up).
	ring := obs.NewRingSink(256)
	gauges := obs.NewSolverGauges(obs.Default())

	const sig = "_* open(f, u) (!close(f, u))* exec(_, u)"
	q := core.MustCompile(pattern.MustParse(sig), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{
		Algo:     core.AlgoMemo,
		Tracer:   ring,
		Progress: gauges.Sample,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("signature: %s\n", sig)
	for _, p := range res.Pairs {
		idx, _ := tracelog.EventIndex(g.VertexName(p.Vertex))
		fmt.Printf("  HIT %s at event %d\n", p.Subst.Format(g.U, q.PS), idx)
	}

	// Phase-timing breakdown: where the wall time of the run went.
	s := res.Stats
	fmt.Printf("\nphase timings:\n")
	fmt.Printf("  compile    %12v\n", s.Phases.Compile.Wall)
	fmt.Printf("  domains    %12v\n", s.Phases.Domains.Wall)
	fmt.Printf("  solve      %12v  (alloc %d B)\n", s.Phases.Solve.Wall, s.Phases.Solve.AllocBytes)
	fmt.Printf("  enumerate  %12v\n", s.Phases.Enumerate.Wall)
	fmt.Printf("counters: worklist=%d reach=%d substs=%d match=%d (hits=%d misses=%d) bytes=%d\n",
		s.WorklistInserts, s.ReachSize, s.Substs, s.MatchCalls,
		s.MatchCacheHits, s.MatchCacheMisses, s.Bytes)

	// The captured trace, rendered as a human-readable table. The same
	// events can be streamed as NDJSON or recorded as a Chrome trace.
	fmt.Printf("\ntrace (%d events captured):\n", ring.Total())
	fmt.Print(obs.FormatEvents(ring.Snapshot()))

	// Cancellation: the same query under an already-canceled context stops
	// at the first check and returns an InterruptError carrying whatever
	// statistics had accumulated — the shape a caller sees on a deadline
	// breach (Options.Deadline) or a Ctrl-C.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = core.ExistContext(ctx, g, g.Start(), q, core.Options{Algo: core.AlgoMemo})
	var ie *core.InterruptError
	if errors.As(err, &ie) {
		fmt.Printf("\ncanceled run: %v\n", err)
		fmt.Printf("  partial stats: worklist=%d reach=%d substs=%d solve=%v\n",
			ie.Stats.WorklistInserts, ie.Stats.ReachSize, ie.Stats.Substs,
			ie.Stats.Phases.Solve.Wall)
		fmt.Printf("  errors.Is(err, context.Canceled) = %v\n", errors.Is(err, context.Canceled))
	} else if err != nil {
		log.Fatal(err)
	}

	// Deadline: Options.Deadline bounds the run without a caller context;
	// on this tiny graph it completes well inside the bound.
	res2, err := core.Exist(g, g.Start(), q, core.Options{Algo: core.AlgoMemo, Deadline: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeadline-bounded rerun: %d answers within 5s budget\n", len(res2.Pairs))
}
