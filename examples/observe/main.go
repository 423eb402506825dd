// Observe: running an intrusion-detection query with the observability
// layer attached — the per-phase timings and counters recorded in
// core.Stats, the execution profile's hottest automaton states, the live
// progress snapshots the solver delivers while it runs, and a canceled
// rerun showing partial statistics. See docs/observability.md for the full
// surface (Prometheus /metrics, pprof, the slow-query log, Chrome traces
// from rpq -trace).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"rpq/internal/core"
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

	// The progress hook sees the live state of the run; the rpq layer
	// publishes the same snapshots at /debug/rpq/queries.
	var last core.Progress
	snapshots := 0

	const sig = "_* open(f, u) (!close(f, u))* exec(_, u)"
	q := core.MustCompile(pattern.MustParse(sig), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{
		Algo:     core.AlgoMemo,
		Explain:  true,
		Progress: func(p core.Progress) { last = p; snapshots++ },
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
	fmt.Printf("  solve      %12v\n", s.Phases.Solve.Wall)
	fmt.Printf("  enumerate  %12v\n", s.Phases.Enumerate.Wall)
	fmt.Printf("counters: worklist=%d reach=%d substs=%d match=%d (hits=%d misses=%d) bytes=%d\n",
		s.WorklistInserts, s.ReachSize, s.Substs, s.MatchCalls,
		s.MatchCacheHits, s.MatchCacheMisses, s.Bytes)

	// The execution profile: where in the automaton the worklist spent its
	// pops.
	fmt.Printf("\nhottest states:\n")
	for _, st := range res.Explain.TopStates(3) {
		fmt.Printf("  s%-3d visits=%d\n", st.State, st.Visits)
	}
	fmt.Printf("last of %d progress snapshots: phase=%s pops=%d reach=%d substs=%d table bytes=%d\n",
		snapshots, last.Phase, last.Pops, last.Reach, last.Substs, last.Bytes)

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

	// Deadline: a timed context bounds the run; on this tiny graph it
	// completes well inside the bound.
	tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer tcancel()
	res2, err := core.ExistContext(tctx, g, g.Start(), q, core.Options{Algo: core.AlgoMemo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeadline-bounded rerun: %d answers within 5s budget\n", len(res2.Pairs))
}
