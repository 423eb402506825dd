// Command experiments regenerates every table and figure of the paper's
// evaluation (Liu et al., PLDI 2004, Section 6) on the synthetic workloads
// of internal/gen:
//
//	experiments -table 1      Table 1: uninitialized-use detection
//	experiments -table 2      Table 2: LTS deadlock detection
//	experiments -table 3      Table 3: hashing vs. nested arrays
//	experiments -figure 3     Figure 3: worklist and time vs. graph size
//	experiments -ablation X   X ∈ direction|memo|domains|compact|scc|complete
//	experiments -all          everything
//
// Absolute times differ from the paper's 2.0 GHz Pentium 4; the comparisons
// that matter are the relative ones: which variant wins, by what factor,
// and how cost scales with input size.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rpq/internal/core"
	"rpq/internal/gen"
	"rpq/internal/graph"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/queries"
	"rpq/internal/subst"
)

// liveProgress, when -http is set, feeds each running query's progress
// (worklist depth, reach size, table bytes) to the gauges at /metrics.
var liveProgress func(obs.Progress)

// section labels bench entries with the table/figure/ablation being run.
var section string

// queryTimeout is the -timeout flag: the per-query wall-clock bound; a
// measured query exceeding it aborts the run with its partial statistics.
var queryTimeout time.Duration

// explainOn is the -explain flag: collect execution profiles for every
// measured query and carry the hot-state fields into the bench entries.
var explainOn bool

// benchEntry is one machine-comparable measurement, in the shape of a
// `go test -bench` result plus the solver counters (BENCH_*.json style).
type benchEntry struct {
	Name            string `json:"name"`
	NsPerOp         int64  `json:"ns_per_op"`
	WorklistInserts int    `json:"worklist_inserts"`
	MatchCalls      int    `json:"match_calls"`
	EnumSubsts      int    `json:"enum_substs"`
	ResultPairs     int    `json:"result_pairs"`
	Bytes           int64  `json:"bytes"`
	SolveNS         int64  `json:"solve_ns"`
	// Populated under -explain: total match attempts and the hottest
	// automaton state by visit count.
	MatchAttempts  int64  `json:"match_attempts,omitempty"`
	HotState       string `json:"hot_state,omitempty"`
	HotStateVisits int64  `json:"hot_state_visits,omitempty"`
}

var benchEntries []benchEntry

// record appends one bench entry; run() calls it for every measured query.
func record(name string, res *core.Result, dt time.Duration) {
	e := benchEntry{
		Name:            name,
		NsPerOp:         dt.Nanoseconds(),
		WorklistInserts: res.Stats.WorklistInserts,
		MatchCalls:      res.Stats.MatchCalls,
		EnumSubsts:      res.Stats.EnumSubsts,
		ResultPairs:     res.Stats.ResultPairs,
		Bytes:           res.Stats.Bytes,
		SolveNS:         res.Stats.Phases.Solve.Wall.Nanoseconds(),
	}
	if ex := res.Explain; ex != nil {
		e.MatchAttempts = ex.Totals.Attempts
		if top := ex.TopStates(1); len(top) > 0 {
			if top[0].Bad {
				e.HotState = "bad"
			} else {
				e.HotState = fmt.Sprintf("s%d", top[0].State)
			}
			e.HotStateVisits = top[0].Visits
		}
	}
	benchEntries = append(benchEntries, e)
}

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate Table 1, 2, or 3")
		figure    = flag.Int("figure", 0, "regenerate Figure 3")
		ablation  = flag.String("ablation", "", "direction|memo|domains|compact|scc|complete")
		all       = flag.Bool("all", false, "run everything")
		timeout   = flag.Duration("timeout", 0, "per-query wall-clock bound; exceeding it aborts with partial stats")
		maxCost   = flag.Float64("enumcost", 2e7, "run enumeration only when substs×edges is below this (n/d otherwise, like the paper's 180 s limit)")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/vars, and /debug/pprof on this address during the run")
		benchJSON = flag.String("benchjson", "", "write a BENCH_*.json-compatible summary of every measured query to this file")
		explain   = flag.Bool("explain", false, "collect execution profiles; bench entries gain match_attempts and hot_state fields")
	)
	flag.Parse()
	explainOn = *explain
	queryTimeout = *timeout

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: observability on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr)
		liveProgress = obs.NewSolverGauges(nil).Sample
	}

	ran := false
	if *table == 1 || *all {
		table1()
		ran = true
	}
	if *table == 2 || *all {
		table2(*maxCost)
		ran = true
	}
	if *table == 3 || *all {
		table3()
		ran = true
	}
	if *figure == 3 || *all {
		figure3()
		ran = true
	}
	if *ablation != "" || *all {
		names := []string{*ablation}
		if *all {
			names = []string{"direction", "memo", "domains", "compact", "scc", "complete"}
		}
		for _, n := range names {
			runAblation(n)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Benchmarks []benchEntry `json:"benchmarks"`
		}{benchEntries})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d bench entries to %s\n", len(benchEntries), *benchJSON)
	}
}

// run executes one query and returns the result with wall-clock time.
func run(g *graph.Graph, start int32, pat string, opts core.Options) (*core.Result, time.Duration) {
	opts.Progress = liveProgress
	opts.Explain = explainOn
	opts.Deadline = queryTimeout
	q := core.MustCompile(pattern.MustParse(pat), g.U)
	t0 := time.Now()
	res, err := core.Exist(g, start, q, opts)
	if err != nil {
		var ie *core.InterruptError
		if errors.As(err, &ie) {
			fmt.Fprintf(os.Stderr, "experiments: %v (partial: worklist=%d reach=%d substs=%d)\n",
				err, ie.Stats.WorklistInserts, ie.Stats.ReachSize, ie.Stats.Substs)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
		os.Exit(1)
	}
	dt := time.Since(t0)
	record(fmt.Sprintf("%s/%s/%s", section, opts.Algo, opts.Table), res, dt)
	return res, dt
}

// backwardSetup reverses the graph and finds the post-exit start vertex.
func backwardSetup(g *graph.Graph) (*graph.Graph, int32) {
	r := g.Reverse()
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if e.Label.Format(g.U, nil) == "exit()" {
				return r, e.To
			}
		}
	}
	fmt.Fprintln(os.Stderr, "experiments: no exit() edge")
	os.Exit(1)
	return nil, 0
}

const (
	bwdUninit = "_* use(x,l) (!def(x))* entry()"
	fwdUninit = "(!def(x))* use(x,_)"
)

func table1() {
	fmt.Println("Table 1: uninitialized-use detection (backward query for basic and")
	fmt.Println("precomputation, forward query for enumeration, as in the paper)")
	fmt.Printf("%-10s %5s %6s %7s | %9s %9s | %9s %9s | %9s %9s %7s\n",
		"input", "LOC", "edges", "result",
		"basic-wl", "time", "pre-wl", "time", "enum-wl", "time", "substs")
	for _, spec := range gen.Table1Specs() {
		section = "table1/" + spec.Name
		g := gen.Program(spec)
		rg, rstart := backwardSetup(g)

		basic, tBasic := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		pre, tPre := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoPrecomp})
		enum, tEnum := run(g, g.Start(), fwdUninit, core.Options{Algo: core.AlgoEnum})

		fmt.Printf("%-10s %5d %6d %7d | %9d %8.3fs | %9d %8.3fs | %9d %8.3fs %7d\n",
			spec.Name, spec.LOC, g.NumEdges(), basic.Stats.ResultPairs,
			basic.Stats.WorklistInserts, tBasic.Seconds(),
			pre.Stats.WorklistInserts, tPre.Seconds(),
			enum.Stats.WorklistInserts, tEnum.Seconds(), enum.Stats.EnumSubsts)
	}
	fmt.Println()
}

func table2(maxCost float64) {
	deadlock, _ := queries.ByName("lts-deadlock")
	fmt.Println("Table 2: LTS deadlock detection (forward existential query)")
	fmt.Printf("%-11s %7s %7s %7s | %9s %9s | %9s %9s | %9s %9s %7s\n",
		"input", "states", "edges", "result",
		"basic-wl", "time", "pre-wl", "time", "enum-wl", "time", "substs")
	for _, spec := range gen.Table2Specs() {
		section = "table2/" + spec.Name
		l := gen.RandomLTS(spec)
		g := l.ForExistential()

		basic, tBasic := run(g, g.Start(), deadlock.Pattern, core.Options{Algo: core.AlgoBasic})
		pre, tPre := run(g, g.Start(), deadlock.Pattern, core.Options{Algo: core.AlgoPrecomp})

		q := core.MustCompile(pattern.MustParse(deadlock.Pattern), g.U)
		doms := core.ComputeDomains(q, g, core.DomainsRefined)
		enumWL, enumTime, enumSubsts := "n/d", "n/d", fmt.Sprint(doms.Count())
		if float64(doms.Count())*float64(g.NumEdges()) <= maxCost {
			enum, tEnum := run(g, g.Start(), deadlock.Pattern, core.Options{Algo: core.AlgoEnum})
			enumWL = fmt.Sprint(enum.Stats.WorklistInserts)
			enumTime = fmt.Sprintf("%8.3fs", tEnum.Seconds())
			enumSubsts = fmt.Sprint(enum.Stats.EnumSubsts)
		}
		fmt.Printf("%-11s %7d %7d %7d | %9d %8.3fs | %9d %8.3fs | %9s %9s %7s\n",
			spec.Name, spec.States, g.NumEdges(), basic.Stats.ResultPairs,
			basic.Stats.WorklistInserts, tBasic.Seconds(),
			pre.Stats.WorklistInserts, tPre.Seconds(),
			enumWL, enumTime, enumSubsts)
	}
	fmt.Println()
}

func table3() {
	fmt.Println("Table 3: memory and time, hashing vs. nested arrays (uninitialized uses)")
	fmt.Printf("%-10s | %10s %8s %10s %8s | %10s %8s %10s %8s | %10s %8s %10s %8s\n",
		"input",
		"b-hash", "time", "b-nested", "time",
		"p-hash", "time", "p-nested", "time",
		"e-hash", "time", "e-nested", "time")
	for _, spec := range gen.Table1Specs() {
		section = "table3/" + spec.Name
		g := gen.Program(spec)
		rg, rstart := backwardSetup(g)
		row := fmt.Sprintf("%-10s |", spec.Name)
		for _, algo := range []core.Algo{core.AlgoBasic, core.AlgoPrecomp, core.AlgoEnum} {
			for _, tk := range []subst.TableKind{subst.Hash, subst.Nested} {
				var res *core.Result
				var dt time.Duration
				if algo == core.AlgoEnum {
					res, dt = run(g, g.Start(), fwdUninit, core.Options{Algo: algo, Table: tk})
				} else {
					res, dt = run(rg, rstart, bwdUninit, core.Options{Algo: algo, Table: tk})
				}
				row += fmt.Sprintf(" %9dk %7.3fs", res.Stats.Bytes/1024, dt.Seconds())
			}
			row += " |"
		}
		fmt.Println(row)
	}
	fmt.Println()
}

func figure3() {
	fmt.Println("Figure 3: worklist size and running time vs. graph size")
	fmt.Println("(basic algorithm, backward uninitialized-uses query)")
	fmt.Printf("%8s %10s %10s %12s\n", "edges", "worklist", "time(ms)", "wl/edges")
	for i, edges := range []int{500, 1000, 1500, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000} {
		section = fmt.Sprintf("figure3/%d", edges)
		spec := gen.ProgSpec{
			Name: fmt.Sprintf("sweep-%d", edges), LOC: 0, Seed: int64(3000 + i),
			Edges: edges, Vars: 40 + edges/25, UninitFrac: 0.12,
			UseSites: true, EntryLoop: true,
		}
		g := gen.Program(spec)
		rg, rstart := backwardSetup(g)
		res, dt := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		fmt.Printf("%8d %10d %10.2f %12.2f\n",
			g.NumEdges(), res.Stats.WorklistInserts, float64(dt.Microseconds())/1000,
			float64(res.Stats.WorklistInserts)/float64(g.NumEdges()))
	}
	fmt.Println()
}

func runAblation(name string) {
	section = "ablation/" + name
	spec := gen.Table1Specs()[4] // "cut": mid-sized
	g := gen.Program(spec)
	rg, rstart := backwardSetup(g)
	switch name {
	case "direction":
		fmt.Println("Ablation: forward vs. backward formulation (Section 5.1)")
		fwd, tF := run(g, g.Start(), fwdUninit, core.Options{Algo: core.AlgoBasic})
		bwd, tB := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		fmt.Printf("  forward  (!def(x))* use(x,_):          worklist %8d  time %8.3fs\n",
			fwd.Stats.WorklistInserts, tF.Seconds())
		fmt.Printf("  backward _* use(x,l)(!def(x))*entry(): worklist %8d  time %8.3fs\n",
			bwd.Stats.WorklistInserts, tB.Seconds())
		fmt.Println("  (the forward query enumerates x for every def under the negation;")
		fmt.Println("   the backward query binds x positively first — the paper's point)")
	case "memo":
		fmt.Println("Ablation: match memoization (M_s)")
		basic, tB := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		memo, tM := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoMemo})
		fmt.Printf("  basic: match calls %9d  time %8.3fs\n", basic.Stats.MatchCalls, tB.Seconds())
		fmt.Printf("  memo:  match calls %9d  time %8.3fs  (+%d KiB for M_s)\n",
			memo.Stats.MatchCalls, tM.Seconds(), (memo.Stats.Bytes-basic.Stats.Bytes)/1024)
	case "domains":
		fmt.Println("Ablation: parameter-domain refinement (Section 5.3), forward enumeration")
		small := gen.Table1Specs()[0]
		sg := gen.Program(small)
		refined, tR := run(sg, sg.Start(), fwdUninit, core.Options{Algo: core.AlgoEnum, Domains: core.DomainsRefined})
		alls, tA := run(sg, sg.Start(), fwdUninit, core.Options{Algo: core.AlgoEnum, Domains: core.DomainsAllSymbols})
		fmt.Printf("  refined domains: %6d substitutions  time %8.3fs\n", refined.Stats.EnumSubsts, tR.Seconds())
		fmt.Printf("  all symbols:     %6d substitutions  time %8.3fs\n", alls.Stats.EnumSubsts, tA.Seconds())
	case "compact":
		fmt.Println("Ablation: query-relevant graph compaction (Section 5.3)")
		plain, tP := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		comp, tC := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic, Compact: true})
		fmt.Printf("  wildcard query (_* ... — every edge stays relevant):\n")
		fmt.Printf("    full graph:      worklist %8d  time %8.3fs\n", plain.Stats.WorklistInserts, tP.Seconds())
		fmt.Printf("    compacted graph: worklist %8d  time %8.3fs\n", comp.Stats.WorklistInserts, tC.Seconds())
		// A query without wildcards, where only state/act edges of an LTS
		// can ever be matched: the deadlock query on an LTS whose graph
		// also carries decoy bookkeeping edges.
		l := gen.RandomLTS(gen.LTSSpec{Name: "c", Seed: 17, States: 2000, Trans: 8000, Actions: 8, InvisibleFrac: 0.2})
		lg := l.ForExistential()
		for v := int32(0); v < int32(l.NumStates); v++ {
			for k := 0; k < 4; k++ {
				lg.MustAddEdgeStr(lg.VertexName(v), fmt.Sprintf("trace(%s,%d)", lg.VertexName(v), k), lg.VertexName(v))
			}
		}
		// The deadlock query reformulated without the _ wildcard: it still
		// traverses the whole system, but cannot match the decoy edges, so
		// compaction can drop them.
		q2 := "(act(_)|state(_))* state(s) act(_)"
		full2, tF2 := run(lg, lg.Start(), q2, core.Options{Algo: core.AlgoBasic})
		comp2, tC2 := run(lg, lg.Start(), q2, core.Options{Algo: core.AlgoBasic, Compact: true})
		fmt.Printf("  wildcard-free query %q on an LTS with decoy trace() self-loops:\n", q2)
		fmt.Printf("    full graph:      worklist %8d  time %8.3fs\n", full2.Stats.WorklistInserts, tF2.Seconds())
		fmt.Printf("    compacted graph: worklist %8d  time %8.3fs\n", comp2.Stats.WorklistInserts, tC2.Seconds())
	case "scc":
		fmt.Println("Ablation: SCC-ordered processing with per-component release (Section 5.3)")
		plain, tP := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic})
		scc, tS := run(rg, rstart, bwdUninit, core.Options{Algo: core.AlgoBasic, SCCOrder: true})
		fmt.Printf("  plain: peak live triples %8d  bytes %8dk  time %8.3fs\n",
			plain.Stats.PeakTriples, plain.Stats.Bytes/1024, tP.Seconds())
		fmt.Printf("  scc:   peak live triples %8d  bytes %8dk  time %8.3fs\n",
			scc.Stats.PeakTriples, scc.Stats.Bytes/1024, tS.Seconds())
	case "complete":
		fmt.Println("Ablation: incomplete automata vs. trap-state completion (vs. Liu & Yu 2002)")
		l := gen.RandomLTS(gen.LTSSpec{Name: "u", Seed: 23, States: 1500, Trans: 6000, Actions: 8, InvisibleFrac: 0.2})
		ug := l.ForUniversal()
		// Ground deterministic pattern: the universal transformation makes
		// every path alternate state and act labels.
		q := core.MustCompile(pattern.MustParse("(state(_) act(_))* state(_)?"), ug.U)
		for _, cm := range []core.CompletionMode{core.Incomplete, core.CompleteTrap, core.CompleteExplicit} {
			t0 := time.Now()
			res, err := core.Univ(ug, ug.Start(), q, core.Options{Completion: cm, Progress: liveProgress, Deadline: queryTimeout})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			dt := time.Since(t0)
			record(fmt.Sprintf("%s/univ/%s", section, cm), res, dt)
			fmt.Printf("  %-11s worklist %8d  match calls %9d  bytes %8dk  time %8.3fs  answers %d\n",
				cm.String()+":", res.Stats.WorklistInserts, res.Stats.MatchCalls,
				res.Stats.Bytes/1024, dt.Seconds(), res.Stats.ResultPairs)
		}
		fmt.Println("  (explicit completion is the prior-work construction; its per-label trap")
		fmt.Println("   transitions cost extra matches and space the incomplete algorithm avoids)")
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown ablation %q\n", name)
		os.Exit(2)
	}
	fmt.Println()
}
