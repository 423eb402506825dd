// Command rpq runs a parametric regular path query against a graph file.
//
// Usage:
//
//	rpq -graph g.txt -pattern '(!def(x))* use(x)' [flags]
//	rpq -graph g.txt -analysis uninit-uses [flags]
//	rpq -list
//
// Flags select the query kind (existential/universal), the algorithm
// variant of the paper (basic, memo, precomp, enum, hybrid), the
// data-structure representation (hash or nested arrays), direction,
// and the start vertex. Graphs in the Aldébaran .aut format are accepted
// with -aut.
//
// Observability flags (docs/observability.md): -stats selects text, json,
// or csv run statistics, the run's one record; -trace writes the same
// record's phases and counters as a Chrome trace_event file for
// chrome://tracing; -http serves /metrics (with the go_* runtime metrics),
// /debug/rpq/queries, and /debug/pprof during the run; -slow logs slow and
// interrupted queries; -explain prints a per-state/per-label execution
// profile as text, JSON, or an annotated Graphviz heat-map of the query
// automaton.
//
// In-flight control: -timeout bounds the query's wall time, Ctrl-C cancels
// it — both stop the run with partial statistics; -progress prints a live
// stderr ticker.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"rpq"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (textual format, or .aut with -aut)")
		aut       = flag.Bool("aut", false, "treat the graph file as an Aldébaran LTS")
		patt      = flag.String("pattern", "", "query pattern, e.g. '(!def(x))* use(x)'")
		pattFile  = flag.String("pattern-file", "", "read the query pattern from a file (blank and # comment lines ignored)")
		lintFmt   = flag.String("lint", "", "statically analyze the query instead of running it: text|json; exits 1 on error-severity findings (-graph optional, adds alphabet/cost checks)")
		violation = flag.String("violations", "", "universal discipline pattern; generates and runs the merged violation query (Section 5.4)")
		withExit  = flag.Bool("exit-violations", true, "with -violations, also flag resources left incomplete at exit()")
		analysis  = flag.String("analysis", "", "named analysis from the catalog instead of -pattern")
		universal = flag.Bool("universal", false, "run a universal query (default existential)")
		algo      = flag.String("algo", rpq.Auto.String(), names(rpq.Auto, rpq.Hybrid))
		table     = flag.String("table", rpq.Hashing.String(), names(rpq.Hashing, rpq.NestedArrays))
		backward  = flag.Bool("backward", false, "reverse all edges before the query")
		start     = flag.String("start", "", "start vertex (default: graph's start; backward: after exit())")
		compact   = flag.Bool("compact", false, "drop query-irrelevant edges first (existential)")
		statsFmt  = flag.String("stats", "", "print run statistics: text|json|csv")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/rpq/queries, and /debug/pprof on this address during the run")
		traceOut  = flag.String("trace", "", "after the run, write its phases and counters as a Chrome trace_event JSON file (load in chrome://tracing)")
		slow      = flag.Duration("slow", 0, "log queries at or above this duration, and interrupted ones, as NDJSON to stderr")
		timeout   = flag.Duration("timeout", 0, "bound the query's wall-clock time; exceeding it stops the run with partial stats")
		progress  = flag.Bool("progress", false, "print a live progress ticker for the running query on stderr")
		explain   = flag.String("explain", "", "print an execution profile instead of answers: text|json|dot")
		jsonOut   = flag.Bool("json", false, "emit answers as JSON")
		dotOut    = flag.Bool("dot", false, "emit the graph as Graphviz DOT with answers highlighted, instead of listing answers")
		witness   = flag.Bool("witness", false, "attach a witnessing path to each existential answer")
		list      = flag.Bool("list", false, "list the analysis catalog and exit")
		estimate  = flag.Bool("estimate", false, "print the Figure 2 complexity report and the query's lint findings, then run")
		maxPrint  = flag.Int("n", 0, "print at most n answers (0 = all)")
	)
	flag.Parse()

	if *list {
		for _, a := range rpq.Analyses() {
			fmt.Printf("%-24s %-11s %-8s %s\n", a.Name, a.Kind, a.Dir, a.Pattern)
			fmt.Printf("%-24s %s\n", "", a.Description)
		}
		return
	}
	if *pattFile != "" {
		if *patt != "" {
			fail("-pattern and -pattern-file are mutually exclusive")
		}
		src, err := readPatternFile(*pattFile)
		if err != nil {
			fail("%v", err)
		}
		*patt = src
	}
	if *graphPath == "" && *lintFmt == "" {
		fail("missing -graph (or use -list)")
	}
	var g *rpq.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		if *aut {
			g, err = rpq.FromAUT(f, *universal)
		} else {
			g, err = rpq.ReadGraph(f)
		}
		if err != nil {
			fail("%v", err)
		}
	}

	opts := &rpq.Options{Backward: *backward, Start: *start, Compact: *compact, Witnesses: *witness, Deadline: *timeout}

	// Ctrl-C cancels the running query; it stops at the next cancellation
	// check and reports its partial statistics.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Observability wiring: live HTTP endpoints, slow log, progress ticker.
	if *httpAddr != "" {
		srv, err := rpq.ServeObservability(*httpAddr)
		if err != nil {
			fail("%v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rpq: observability on http://%s (index: http://%s/debug/rpq/)\n",
			srv.Addr, srv.Addr)
	}
	if *progress {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					for _, q := range rpq.InflightQueries() {
						fmt.Fprintf(os.Stderr,
							"rpq: progress %s phase=%s elapsed=%.0fms pops=%d depth=%d reach=%d substs=%d enum=%d\n",
							q.Kind, q.Phase, q.ElapsedMS, q.Pops, q.Depth, q.Reach, q.Substs, q.EnumSubsts)
					}
				}
			}
		}()
	}
	if *slow > 0 {
		opts.SlowLog = rpq.NewSlowLog(os.Stderr, *slow)
	}
	switch *explain {
	case "", "text", "json", "dot":
		opts.Explain = *explain != ""
	default:
		fail("unknown -explain format %q (want text, json, or dot)", *explain)
	}

	var err error
	if opts.Algorithm, err = rpq.ParseAlgorithm(*algo); err != nil {
		fail("-algo: %v", err)
	}
	if opts.Table, err = rpq.ParseTableKind(*table); err != nil {
		fail("-table: %v", err)
	}

	if *lintFmt != "" {
		runLint(g, opts, *lintFmt, *patt, *analysis, *violation, *universal)
		return
	}

	if *estimate {
		src, uni := *patt, *universal
		if *analysis != "" {
			a, err := rpq.AnalysisByName(*analysis)
			if err != nil {
				fail("%v", err)
			}
			src, uni = a.Pattern, a.Kind.String() == "universal"
		}
		p, err := rpq.ParsePattern(src)
		if err != nil {
			fail("%v", err)
		}
		est, err := g.EstimateQuery(p, opts.Domains)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprint(os.Stderr, est)
		for _, d := range rpq.LintQuery(g, p, uni, opts) {
			fmt.Fprintln(os.Stderr, rpq.FormatDiagnostic(d, p))
		}
	}

	var res *rpq.Result
	switch {
	case *violation != "":
		res, err = g.ViolationsContext(ctx, *violation, *withExit, opts)
	case *analysis != "":
		a, aerr := rpq.AnalysisByName(*analysis)
		if aerr != nil {
			fail("%v", aerr)
		}
		res, err = g.RunAnalysisContext(ctx, a, opts)
	case *patt != "":
		p, perr := rpq.ParsePattern(*patt)
		if perr != nil {
			fail("%v", perr)
		}
		if *universal {
			res, err = g.UniversalContext(ctx, p, opts)
		} else {
			res, err = g.ExistContext(ctx, p, opts)
		}
	default:
		fail("one of -pattern, -analysis, or -violations is required")
	}
	if *traceOut != "" {
		if terr := writeTraceFile(*traceOut, res, err); terr != nil {
			fail("%v", terr)
		}
	}
	if err != nil {
		failQuery(err)
	}

	if *explain != "" {
		if res.Explain == nil {
			fail("no execution profile collected")
		}
		if err := res.Explain.Consistent(&res.Stats); err != nil {
			fmt.Fprintf(os.Stderr, "rpq: explain consistency: %v\n", err)
		}
		switch *explain {
		case "text":
			fmt.Print(res.Explain.Format())
		case "json":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res.Explain); err != nil {
				fail("%v", err)
			}
		case "dot":
			fmt.Print(res.Explain.DOT())
		}
		if *statsFmt != "" {
			printStats(*statsFmt, res)
		}
		return
	}

	switch {
	case *dotOut:
		var hl []string
		for _, a := range res.Answers {
			hl = append(hl, a.Vertex)
		}
		if err := g.WriteDOT(os.Stdout, "query", hl); err != nil {
			fail("%v", err)
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Answers); err != nil {
			fail("%v", err)
		}
	default:
		n := len(res.Answers)
		if *maxPrint > 0 && *maxPrint < n {
			n = *maxPrint
		}
		for _, a := range res.Answers[:n] {
			fmt.Println(a)
			for _, st := range a.Witness {
				fmt.Printf("    %s -%s-> %s\n", st.From, st.Label, st.To)
			}
		}
		if n < len(res.Answers) {
			fmt.Printf("... and %d more answers\n", len(res.Answers)-n)
		}
	}
	if *statsFmt != "" {
		printStats(*statsFmt, res)
	}
}

// readPatternFile loads a pattern source file: the pattern is the file's
// non-blank, non-comment content (one pattern per file, possibly wrapped
// over several lines, joined with spaces).
func readPatternFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var parts []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts = append(parts, line)
	}
	if len(parts) == 0 {
		return "", fmt.Errorf("%s: no pattern in file", path)
	}
	return strings.Join(parts, " "), nil
}

// runLint is the -lint mode: statically analyze the query and report the
// findings instead of solving. Exit status 1 when any finding has error
// severity (the query is provably broken), 0 otherwise.
func runLint(g *rpq.Graph, opts *rpq.Options, format, patt, analysis, violation string, universal bool) {
	src := patt
	switch {
	case violation != "":
		// Disciplines have universal per-resource semantics.
		src, universal = violation, true
	case analysis != "":
		a, err := rpq.AnalysisByName(analysis)
		if err != nil {
			fail("%v", err)
		}
		src = a.Pattern
		universal = a.Kind.String() == "universal"
	case src == "":
		fail("-lint needs one of -pattern, -pattern-file, -analysis, or -violations")
	}
	p, err := rpq.ParsePattern(src)
	if err != nil {
		fail("%v", err)
	}
	diags := rpq.LintQuery(g, p, universal, opts)
	switch format {
	case "text":
		if len(diags) == 0 {
			fmt.Fprintln(os.Stderr, "rpq: lint clean")
		}
		for _, d := range diags {
			fmt.Println(rpq.FormatDiagnostic(d, p))
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fail("%v", err)
		}
	default:
		fail("unknown -lint format %q (want text or json)", format)
	}
	for _, d := range diags {
		if d.Severity >= rpq.SeverityError {
			os.Exit(1)
		}
	}
}

// printStats renders run statistics in the requested format on stderr
// (json/csv go to stdout so they can be piped while answers go elsewhere
// via -json or -dot; text keeps the historical stderr destination).
func printStats(format string, res *rpq.Result) {
	s := res.Stats
	switch format {
	case "text", "true": // "true" preserves the old boolean -stats spelling
		fmt.Fprintf(os.Stderr, "answers=%d worklist=%d reach=%d substs=%d match=%d hits=%d misses=%d merge=%d bytes=%d determinism=%v\n",
			len(res.Answers), s.WorklistInserts, s.ReachSize, s.Substs, s.MatchCalls,
			s.MatchCacheHits, s.MatchCacheMisses, s.MergeCalls, s.Bytes, s.DeterminismOK)
		fmt.Fprintf(os.Stderr, "phases: compile=%s domains=%s solve=%s enumerate=%s\n",
			s.Phases.Compile.Wall, s.Phases.Domains.Wall, s.Phases.Solve.Wall, s.Phases.Enumerate.Wall)
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Answers int       `json:"answers"`
			Stats   rpq.Stats `json:"stats"`
		}{len(res.Answers), s}); err != nil {
			fail("%v", err)
		}
	case "csv":
		cols := []string{"answers", "worklist_inserts", "reach_size", "substs", "match_calls",
			"match_cache_hits", "match_cache_misses", "merge_calls", "enum_substs", "result_pairs",
			"bytes", "peak_triples", "determinism_ok",
			"compile_ns", "domains_ns", "solve_ns", "enumerate_ns"}
		vals := []any{len(res.Answers), s.WorklistInserts, s.ReachSize, s.Substs, s.MatchCalls,
			s.MatchCacheHits, s.MatchCacheMisses, s.MergeCalls, s.EnumSubsts, s.ResultPairs,
			s.Bytes, s.PeakTriples, s.DeterminismOK,
			int64(s.Phases.Compile.Wall), int64(s.Phases.Domains.Wall),
			int64(s.Phases.Solve.Wall), int64(s.Phases.Enumerate.Wall)}
		fmt.Println(strings.Join(cols, ","))
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(parts, ","))
	default:
		fail("unknown -stats format %q (want text, json, or csv)", format)
	}
}

// named is a solver choice: an int-based type whose String reads its name
// table.
type named interface {
	~int
	String() string
}

// names lists the names of the values first through last as "a|b|c", the
// flag help of a choice.
func names[T named](first, last T) string {
	var s []string
	for v := first; v <= last; v++ {
		s = append(s, v.String())
	}
	return strings.Join(s, "|")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rpq: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// failQuery reports a query error; an interrupted run (canceled or past its
// deadline) additionally prints the statistics accumulated up to the
// interrupt and exits with status 2.
func failQuery(err error) {
	var ie *rpq.InterruptError
	if errors.As(err, &ie) {
		fmt.Fprintf(os.Stderr, "rpq: %v\n", err)
		s := ie.Stats
		fmt.Fprintf(os.Stderr, "rpq: partial stats: worklist=%d reach=%d substs=%d enum=%d pairs=%d solve=%s\n",
			s.WorklistInserts, s.ReachSize, s.Substs, s.EnumSubsts, s.ResultPairs, s.Phases.Solve.Wall)
		os.Exit(2)
	}
	fail("%v", err)
}
