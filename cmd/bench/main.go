// Command bench is the repository's continuous benchmark harness: it runs a
// pinned set of query scenarios — C-dataflow, LTS and real-Go workloads
// across the paper's algorithm variants and both table representations —
// and emits a schema-versioned JSON report (BENCH_*.json) whose
// deterministic solver counters are machine-comparable across commits.
//
// Usage:
//
//	bench -out BENCH_3.json                 # run all scenarios, write report
//	bench -quick -out b.json                # one rep per scenario (CI smoke)
//	bench -compare BENCH_3.json             # run, diff against a baseline
//	bench -in new.json -compare old.json    # diff two saved reports, no run
//	bench -validate BENCH_3.json            # schema-check a report file
//	bench -list                             # print the scenario matrix
//
// Comparison checks every deterministic counter for exact equality and, when
// -threshold is above zero, gates the per-scenario wall time at
// old×threshold. Timing is machine-dependent, so CI runs -threshold 0
// (counters only); local perf work uses e.g. -threshold 1.3. A detected
// regression exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rpq/internal/analyze"
	"rpq/internal/core"
	"rpq/internal/gen"
	"rpq/internal/gofront"
	"rpq/internal/graph"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/queries"
	"rpq/internal/subst"
)

// schemaVersion identifies the report format; bump it when scenario
// definitions or counter semantics change, so stale baselines fail
// validation instead of producing spurious diffs.
const schemaVersion = "rpq-bench/1"

// repTimeout is the -timeout flag: the per-rep wall-clock bound
// (0 = unbounded).
var repTimeout time.Duration

// repContext bounds one rep by repTimeout.
func repContext() (context.Context, context.CancelFunc) {
	if repTimeout > 0 {
		return context.WithTimeout(context.Background(), repTimeout)
	}
	return context.Background(), func() {}
}

// benchReport is the top-level JSON document. The environment fields record
// where a report was produced — timing comparisons across reports are only
// meaningful when they match; the deterministic counters compare regardless.
type benchReport struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version,omitempty"`
	GOMAXPROCS int              `json:"gomaxprocs,omitempty"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	Scenarios  []scenarioResult `json:"scenarios"`
}

// scenarioResult is one scenario's measurement: identity, median timing, and
// the deterministic solver counters that must reproduce exactly on any
// machine.
type scenarioResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Kind     string `json:"kind"` // "exist" | "universal"
	Algo     string `json:"algo"`
	Table    string `json:"table"`
	Reps     int    `json:"reps"`
	NsPerOp  int64  `json:"ns_per_op"`
	SolveNS  int64  `json:"solve_ns"`
	// LintNS is the median wall time of the static query analysis
	// (internal/analyze, graph-dependent checks included) for this
	// scenario's pattern — the lint phase must stay far below solve time.
	// omitempty keeps reports from before the field schema-compatible.
	LintNS int64 `json:"lint_ns,omitempty"`
	// CPUNS and AllocBytes are the median process CPU time and heap
	// allocation per rep — machine-dependent context like the timings, so
	// deliberately absent from Counters and from -compare. omitempty keeps
	// reports from before these fields schema-compatible.
	CPUNS      int64 `json:"cpu_ns,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// FrontendNS is the one-time cost of lowering the workload's source to
	// a program graph (gofront scenarios only) — front-end build time,
	// machine-dependent like the timings, excluded from -compare.
	FrontendNS int64            `json:"frontend_ns,omitempty"`
	Counters   map[string]int64 `json:"counters"`
	// HotState names the automaton state with the most worklist visits, from
	// the explain profile collected alongside each run.
	HotState       string `json:"hot_state,omitempty"`
	HotStateVisits int64  `json:"hot_state_visits,omitempty"`
}

// scenario is one pinned benchmark configuration.
type scenario struct {
	name     string
	workload string // key into the workload cache
	kind     string // "exist" | "universal"
	pat      string
	algo     core.Algo
	table    subst.TableKind
}

// Pinned workload generators. These literals are part of the benchmark
// contract: changing any field changes every deterministic counter, which
// requires a schema bump and a fresh committed baseline.
var (
	progSpec = gen.ProgSpec{
		Name: "bench-prog", Seed: 42, Edges: 2000, Vars: 120,
		UninitFrac: 0.12, UseSites: true, EntryLoop: true,
	}
	univSpec = gen.ProgSpec{
		Name: "bench-univ", Seed: 43, Edges: 400, Vars: 30,
		UninitFrac: 0.12, UseSites: true, EntryLoop: true,
	}
	ltsSpec = gen.LTSSpec{
		Name: "bench-lts", Seed: 42, States: 1500, Trans: 6000,
		Actions: 8, Deadlocks: 2, InvisibleFrac: 0.2,
	}
)

const (
	bwdUninitPattern = "_* use(x,l) (!def(x))* entry()"
	fwdUninitPattern = "(!def(x))* use(x,_)"
	dlockPattern     = "_* lock(m) (!unlock(m))* lock(m)"
	closePattern     = "_* close(x) (!def(x))* (close(x) | send(x) | mcall(x, _))"

	// benchmodDir is the committed real-Go module the gofront scenarios
	// lower; bench must run from the repository root (as CI does).
	benchmodDir = "testdata/goprog/benchmod"
)

// gofrontBuildNS records the one-time front-end lowering cost measured in
// buildWorkloads, reported on gofront scenarios as frontend_ns.
var gofrontBuildNS int64

// scenarios returns the pinned matrix: the C-dataflow workload across the
// variants and both table kinds, the LTS deadlock workload, the universal
// algorithms, and the real-Go workload. The /w1 name suffix is historical
// (the solver is sequential); names are the -compare join key, so it stays.
func scenarios() []scenario {
	deadlock, err := queries.ByName("lts-deadlock")
	if err != nil {
		fail("%v", err)
	}
	return []scenario{
		{"prog-bwd/basic/hash/w1", "prog-bwd", "exist", bwdUninitPattern, core.AlgoBasic, subst.Hash},
		{"prog-bwd/memo/hash/w1", "prog-bwd", "exist", bwdUninitPattern, core.AlgoMemo, subst.Hash},
		{"prog-bwd/memo/nested/w1", "prog-bwd", "exist", bwdUninitPattern, core.AlgoMemo, subst.Nested},
		{"prog-bwd/precomp/hash/w1", "prog-bwd", "exist", bwdUninitPattern, core.AlgoPrecomp, subst.Hash},
		{"prog-bwd/precomp/nested/w1", "prog-bwd", "exist", bwdUninitPattern, core.AlgoPrecomp, subst.Nested},
		{"prog-fwd/enum/hash/w1", "prog-fwd", "exist", fwdUninitPattern, core.AlgoEnum, subst.Hash},
		{"lts-deadlock/basic/hash/w1", "lts", "exist", deadlock.Pattern, core.AlgoBasic, subst.Hash},
		{"lts-deadlock/precomp/hash/w1", "lts", "exist", deadlock.Pattern, core.AlgoPrecomp, subst.Hash},
		{"univ-fwd/enum/hash/w1", "univ-fwd", "universal", fwdUninitPattern, core.AlgoEnum, subst.Hash},
		{"univ-fwd/hybrid/hash/w1", "univ-fwd", "universal", fwdUninitPattern, core.AlgoHybrid, subst.Hash},
		// Real-Go workload: the committed multi-package benchmod module
		// lowered by gofront (interprocedural call/ret/go edges), queried
		// with two checks from the rpqcheck catalog.
		{"gofront-benchmod/dlock/memo/hash/w1", "gofront", "exist", dlockPattern, core.AlgoMemo, subst.Hash},
		{"gofront-benchmod/close/basic/hash/w1", "gofront", "exist", closePattern, core.AlgoBasic, subst.Hash},
	}
}

// workloads builds the pinned graphs once; the map is keyed by the
// scenario.workload field and each entry carries its start vertex.
type workloadGraph struct {
	g     *graph.Graph
	start int32
}

func buildWorkloads() map[string]workloadGraph {
	pg := gen.Program(progSpec)
	var bwdStart int32 = -1
	for v := 0; v < pg.NumVertices(); v++ {
		for _, e := range pg.Out(int32(v)) {
			if pg.Label(e.LabelID).Format(pg.U) == "exit()" {
				bwdStart = e.To
			}
		}
	}
	if bwdStart < 0 {
		fail("no exit edge in generated program")
	}
	ug := gen.Program(univSpec)
	lg := gen.RandomLTS(ltsSpec).ForExistential()
	ft0 := time.Now()
	gp, err := gofront.Load([]string{benchmodDir + "/..."}, gofront.Config{Interproc: true, Workers: 1})
	if err != nil {
		fail("gofront workload: %v (run bench from the repository root)", err)
	}
	gofrontBuildNS = time.Since(ft0).Nanoseconds()
	return map[string]workloadGraph{
		"prog-fwd": {pg, pg.Start()},
		"prog-bwd": {pg.Reverse(), bwdStart},
		"univ-fwd": {ug, ug.Start()},
		"lts":      {lg, lg.Start()},
		"gofront":  {gp.Graph, gp.Graph.Start()},
	}
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON report to this file (- for stdout)")
		quick     = flag.Bool("quick", false, "one rep per scenario (CI smoke); scenarios are unchanged, so counters still compare")
		reps      = flag.Int("reps", 3, "timed repetitions per scenario; the median is reported")
		compareTo = flag.String("compare", "", "baseline report to diff against; a regression exits nonzero")
		in        = flag.String("in", "", "use this saved report as the measurement instead of running")
		validateF = flag.String("validate", "", "schema-check this report file and exit")
		threshold = flag.Float64("threshold", 0, "max ns_per_op ratio vs. baseline (e.g. 1.3); 0 compares counters only")
		list      = flag.Bool("list", false, "print the scenario matrix and exit")
		timeout   = flag.Duration("timeout", 0, "per-rep wall-clock bound; a scenario exceeding it fails the run")
	)
	flag.Parse()
	repTimeout = *timeout

	if *validateF != "" {
		rep, err := loadReport(*validateF)
		if err != nil {
			fail("%v", err)
		}
		if err := validate(rep); err != nil {
			fail("%s: %v", *validateF, err)
		}
		fmt.Printf("%s: valid %s report, %d scenarios\n", *validateF, rep.Schema, len(rep.Scenarios))
		return
	}
	if *list {
		for _, sc := range scenarios() {
			fmt.Printf("%-28s %-9s %-9s %s\n", sc.name, sc.kind, sc.algo, sc.pat)
		}
		return
	}

	var rep *benchReport
	if *in != "" {
		var err error
		rep, err = loadReport(*in)
		if err != nil {
			fail("%v", err)
		}
	} else {
		n := *reps
		if *quick {
			n = 1
		}
		rep = runAll(n)
	}
	if err := validate(rep); err != nil {
		fail("internal: generated report invalid: %v", err)
	}

	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail("%v", err)
		}
		if *out != "-" {
			fmt.Fprintf(os.Stderr, "bench: wrote %d scenarios to %s\n", len(rep.Scenarios), *out)
		}
	}

	if *compareTo != "" {
		base, err := loadReport(*compareTo)
		if err != nil {
			fail("%v", err)
		}
		problems := compare(base, rep, *threshold)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench: regression: %s\n", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: %d scenarios match baseline %s\n", len(rep.Scenarios), *compareTo)
	}

	if *out == "" && *compareTo == "" {
		// No sink requested: print a human summary.
		for _, s := range rep.Scenarios {
			fmt.Printf("%-28s %12dns  worklist=%-8d results=%-6d attempts=%-9d hot=%s(%d)\n",
				s.Name, s.NsPerOp, s.Counters["worklist_inserts"], s.Counters["result_pairs"],
				s.Counters["match_attempts"], s.HotState, s.HotStateVisits)
		}
	}
}

// runAll measures every scenario with n timed reps each.
func runAll(n int) *benchReport {
	wls := buildWorkloads()
	rep := &benchReport{
		Schema:     schemaVersion,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, sc := range scenarios() {
		wl, ok := wls[sc.workload]
		if !ok {
			fail("scenario %s: unknown workload %q", sc.name, sc.workload)
		}
		rep.Scenarios = append(rep.Scenarios, runScenario(sc, wl, n))
	}
	return rep
}

// runScenario compiles once, runs n timed reps, and reports the median wall
// time with the (rep-invariant) deterministic counters. A counter that
// varies across reps is a solver determinism bug, reported loudly.
func runScenario(sc scenario, wl workloadGraph, n int) scenarioResult {
	q := core.MustCompile(pattern.MustParse(sc.pat), wl.g.U)
	opts := core.Options{
		Algo:    sc.algo,
		Table:   sc.table,
		Explain: true,
	}
	lintExpr := pattern.MustParse(sc.pat)
	lintCfg := analyze.Config{
		Universal:   sc.kind == "universal",
		HaveVariant: true,
		Algo:        sc.algo,
		Table:       sc.table,
	}
	// Lint is orders of magnitude cheaper than solving, so time it over a
	// fixed rep count (with one untimed warm-up) even in -quick mode; a
	// single cold sample would otherwise charge process start-up noise to
	// the lint phase.
	const lintReps = 5
	analyze.LintForGraph(wl.g, lintExpr, sc.pat, lintCfg)
	lint := make([]int64, 0, lintReps)
	for i := 0; i < lintReps; i++ {
		lt0 := time.Now()
		analyze.LintForGraph(wl.g, lintExpr, sc.pat, lintCfg)
		lint = append(lint, time.Since(lt0).Nanoseconds())
	}
	var (
		ns      = make([]int64, 0, n)
		solve   = make([]int64, 0, n)
		cpu     = make([]int64, 0, n)
		allocs  = make([]int64, 0, n)
		last    *core.Result
		prevCtr map[string]int64
	)
	for i := 0; i < n; i++ {
		cpu0, alloc0 := obs.ProcessCPUTime(), obs.HeapAllocBytes()
		t0 := time.Now()
		var (
			res *core.Result
			err error
		)
		ctx, cancel := repContext()
		if sc.kind == "universal" {
			res, err = core.UnivContext(ctx, wl.g, wl.start, q, opts)
		} else {
			res, err = core.ExistContext(ctx, wl.g, wl.start, q, opts)
		}
		cancel()
		if err != nil {
			fail("scenario %s: %v", sc.name, err)
		}
		ns = append(ns, time.Since(t0).Nanoseconds())
		cpu = append(cpu, max64(0, (obs.ProcessCPUTime()-cpu0).Nanoseconds()))
		allocs = append(allocs, max64(0, obs.HeapAllocBytes()-alloc0))
		solve = append(solve, res.Stats.Phases.Solve.Wall.Nanoseconds())
		ctr := counters(res)
		if prevCtr != nil && !equalCounters(prevCtr, ctr) {
			fail("scenario %s: counters differ across reps (nondeterministic solver?)", sc.name)
		}
		prevCtr = ctr
		last = res
	}
	out := scenarioResult{
		Name:       sc.name,
		Workload:   sc.workload,
		Kind:       sc.kind,
		Algo:       sc.algo.String(),
		Table:      tableName(sc.table),
		Reps:       n,
		NsPerOp:    median(ns),
		SolveNS:    median(solve),
		LintNS:     median(lint),
		CPUNS:      median(cpu),
		AllocBytes: median(allocs),
		Counters:   prevCtr,
	}
	if sc.workload == "gofront" {
		out.FrontendNS = gofrontBuildNS
	}
	if ex := last.Explain; ex != nil {
		if top := ex.TopStates(1); len(top) > 0 {
			if top[0].Bad {
				out.HotState = "bad"
			} else {
				out.HotState = fmt.Sprintf("s%d", top[0].State)
			}
			out.HotStateVisits = top[0].Visits
		}
	}
	return out
}

// counters extracts the deterministic counter set: identical on every
// machine. Timing, byte, and cache-split counters are deliberately excluded.
func counters(res *core.Result) map[string]int64 {
	c := map[string]int64{
		"worklist_inserts": int64(res.Stats.WorklistInserts),
		"reach_size":       int64(res.Stats.ReachSize),
		"substs":           int64(res.Stats.Substs),
		"enum_substs":      int64(res.Stats.EnumSubsts),
		"result_pairs":     int64(res.Stats.ResultPairs),
	}
	if ex := res.Explain; ex != nil {
		c["match_attempts"] = ex.Totals.Attempts
		c["match_hits"] = ex.Totals.Hits
		c["visits"] = ex.Totals.Visits
		c["extensions"] = ex.Totals.Extensions
	}
	return c
}

func equalCounters(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func tableName(k subst.TableKind) string {
	if k == subst.Nested {
		return "nested"
	}
	return "hash"
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func median(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// loadReport reads and decodes a report file.
func loadReport(path string) (*benchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// validate schema-checks a report.
func validate(rep *benchReport) error {
	if rep.Schema != schemaVersion {
		return fmt.Errorf("schema %q, want %q", rep.Schema, schemaVersion)
	}
	if len(rep.Scenarios) == 0 {
		return fmt.Errorf("no scenarios")
	}
	seen := map[string]bool{}
	for i, s := range rep.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("scenario %d: empty name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("scenario %q: duplicate name", s.Name)
		}
		seen[s.Name] = true
		if s.Reps < 1 {
			return fmt.Errorf("scenario %q: reps %d < 1", s.Name, s.Reps)
		}
		if s.NsPerOp <= 0 {
			return fmt.Errorf("scenario %q: ns_per_op %d <= 0", s.Name, s.NsPerOp)
		}
		if len(s.Counters) == 0 {
			return fmt.Errorf("scenario %q: no counters", s.Name)
		}
	}
	return nil
}

// compare diffs a new report against a baseline: deterministic counters must
// match exactly; when threshold > 0, ns_per_op may not exceed
// old×threshold. It returns one message per problem (empty = pass).
func compare(old, new *benchReport, threshold float64) []string {
	var problems []string
	if old.Schema != new.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q vs. new %q — regenerate the baseline", old.Schema, new.Schema)}
	}
	byName := map[string]scenarioResult{}
	for _, s := range new.Scenarios {
		byName[s.Name] = s
	}
	for _, o := range old.Scenarios {
		n, ok := byName[o.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: scenario missing from new report", o.Name))
			continue
		}
		keys := make([]string, 0, len(o.Counters))
		for k := range o.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			nv, ok := n.Counters[k]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: counter %s missing from new report", o.Name, k))
				continue
			}
			if nv != o.Counters[k] {
				problems = append(problems, fmt.Sprintf("%s: counter %s = %d, baseline %d", o.Name, k, nv, o.Counters[k]))
			}
		}
		if threshold > 0 && o.NsPerOp > 0 {
			ratio := float64(n.NsPerOp) / float64(o.NsPerOp)
			if ratio > threshold {
				problems = append(problems, fmt.Sprintf("%s: ns_per_op %d is %.2fx baseline %d (threshold %.2fx)",
					o.Name, n.NsPerOp, ratio, o.NsPerOp, threshold))
			}
		}
	}
	return problems
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}
