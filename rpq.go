// Package rpq implements parametric regular path queries — the system of
// Liu, Rothamel, Yu, Stoller, and Hu, "Parametric Regular Path Queries"
// (PLDI 2004).
//
// A query matches a regular-expression pattern whose alphabet elements are
// transition labels — constructor terms that may contain parameters (x),
// wildcards (_), and negations (!) — against the paths of an edge-labeled
// directed graph. Existential queries compute the pairs ⟨v, θ⟩ such that
// some path from the start vertex to v matches the pattern under the
// substitution θ; universal queries require every path to v to match.
//
// Quick start:
//
//	g := rpq.NewGraph()
//	g.MustAddEdge("v1", "def(a)", "v2")
//	g.MustAddEdge("v2", "use(b)", "v3")
//	g.SetStart("v1")
//	p := rpq.MustParsePattern("(!def(x))* use(x)")
//	res, err := g.Exist(p, nil)
//	// res.Answers = [{Vertex: "v3", Bindings: [{x b}]}]
//
// The solver variants of the paper (basic, match memoization, M_ts/M_ds
// precomputation, enumeration, hybrid), the two data-structure
// representations it compares (hashing vs. nested arrays), backward queries
// on reversed graphs, parameter-domain refinement, SCC-ordered processing,
// and graph compaction are all selected through Options.
package rpq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rpq/internal/choice"
	"rpq/internal/core"
	"rpq/internal/gofront"
	"rpq/internal/graph"
	"rpq/internal/lts"
	"rpq/internal/minic"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/queries"
	"rpq/internal/subst"
	"rpq/internal/xmldata"
)

// Graph is an edge-labeled directed graph with a distinguished start vertex.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{g: graph.New()} }

// ReadGraph parses the textual graph format:
//
//	# comment
//	start v1
//	edge v1 def(a) v2
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadGraphString parses a graph from a string.
func ReadGraphString(s string) (*Graph, error) { return ReadGraph(strings.NewReader(s)) }

// AddEdge adds an edge between named vertices with a ground label such as
// "def(a)", "use(x,17)", or "exit()". Vertices are created as needed.
func (g *Graph) AddEdge(from, label, to string) error {
	return g.g.AddEdgeStr(from, label, to)
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, label, to string) {
	g.g.MustAddEdgeStr(from, label, to)
}

// SetStart sets the start vertex v0, creating it if needed.
func (g *Graph) SetStart(name string) { g.g.SetStart(g.g.Vertex(name)) }

// Start returns the start vertex name, or "" if unset.
func (g *Graph) Start() string {
	if g.g.Start() < 0 {
		return ""
	}
	return g.g.VertexName(g.g.Start())
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// Write emits the graph in the textual format.
func (g *Graph) Write(w io.Writer) error { return g.g.Write(w) }

// WriteDOT emits the graph in Graphviz DOT format. Vertices named in
// highlight (e.g. query answers) are filled; the start vertex is drawn with
// a double circle.
func (g *Graph) WriteDOT(w io.Writer, name string, highlight []string) error {
	var hl map[int32]bool
	if len(highlight) > 0 {
		hl = map[int32]bool{}
		for _, n := range highlight {
			if v, ok := g.g.LookupVertex(n); ok {
				hl[v] = true
			}
		}
	}
	return g.g.WriteDOT(w, name, hl)
}

// String renders the graph in the textual format.
func (g *Graph) String() string { return g.g.String() }

// Reverse returns the graph with all edges reversed; backward queries run on
// the reversed graph (Section 2.2 of the paper).
func (g *Graph) Reverse() *Graph { return &Graph{g: g.g.Reverse()} }

// ExitVertex returns the vertex just after an exit() edge, the conventional
// start for backward queries on program graphs produced by the MiniC
// front-end and the workload generator.
func (g *Graph) ExitVertex() (string, bool) {
	for v := 0; v < g.g.NumVertices(); v++ {
		for _, e := range g.g.Out(int32(v)) {
			if g.g.Label(e.LabelID).Format(g.g.U) == "exit()" {
				return g.g.VertexName(e.To), true
			}
		}
	}
	return "", false
}

// Internal exposes the underlying graph for the benchmark harness and
// command-line tools inside this module.
func (g *Graph) Internal() *graph.Graph { return g.g }

// WrapGraph wraps an internal graph in the public type.
func WrapGraph(ig *graph.Graph) *Graph { return &Graph{g: ig} }

// Pattern is a parsed parametric regular-expression pattern.
type Pattern struct {
	expr pattern.Expr
	src  string
}

// ParsePattern parses the pattern syntax, e.g. "(!def(x))* use(x)":
// concatenation by juxtaposition, alternation with |, repetition with * + ?,
// grouping with parentheses, eps for the empty path; labels are constructor
// terms whose bare argument identifiers are parameters, quoted or numeric
// arguments are symbols, _ is a wildcard and ! negation (with !(a|b) for
// negated alternations).
func ParsePattern(src string) (*Pattern, error) {
	e, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Pattern{expr: e, src: src}, nil
}

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the canonical rendering of the pattern.
func (p *Pattern) String() string { return pattern.String(p.expr) }

// Mirror returns the pattern's reversal: a path matches p iff the reversed
// path matches p.Mirror(). It is the mechanical half of the Section 5.1
// forward/backward query conversion — combine with Options.Backward to ask
// suffix questions ("from which vertices does a P-path reach the exit?").
func (p *Pattern) Mirror() *Pattern {
	m := pattern.Mirror(p.expr)
	return &Pattern{expr: m, src: pattern.String(m)}
}

// Params returns the pattern's parameter names, sorted.
func (p *Pattern) Params() []string { return pattern.Params(p.expr) }

// Expr exposes the pattern AST for in-module tools.
func (p *Pattern) Expr() pattern.Expr { return p.expr }

// Algorithm selects the solver variant (Sections 3, 4, and 6).
type Algorithm int

const (
	// Auto picks the paper's recommended variant: memoization for
	// existential queries; for universal queries the direct algorithm with
	// automatic fallback to hybrid when the determinism check fails.
	Auto Algorithm = iota
	// Basic is the plain worklist algorithm.
	Basic
	// Memo memoizes match results (the substitution map M_s).
	Memo
	// Precompute builds the target-and-substitution map M_ts (existential)
	// or the determinism-and-substitution map M_ds (universal).
	Precompute
	// Enumerate runs one parameter-free query per full substitution over
	// the parameter domains.
	Enumerate
	// Hybrid (universal only) enumerates only extensions of substitutions
	// found by a first existential pass.
	Hybrid
)

// coreAlgos maps each Algorithm except Auto, which resolve picks per query
// kind, to its core variant.
var coreAlgos = [...]core.Algo{
	Basic:      core.AlgoBasic,
	Memo:       core.AlgoMemo,
	Precompute: core.AlgoPrecomp,
	Enumerate:  core.AlgoEnum,
	Hybrid:     core.AlgoHybrid,
}

// algorithmNames names Auto "auto" and every other Algorithm after its core
// variant.
var algorithmNames = func() choice.Names[Algorithm] {
	names := []string{"auto"}
	for _, a := range coreAlgos[Basic:] {
		names = append(names, a.String())
	}
	return choice.New[Algorithm]("algorithm", names...)
}()

// String names the variant: auto, basic, memo, precomp, enum or hybrid.
func (a Algorithm) String() string { return algorithmNames.String(a) }

// ParseAlgorithm returns the Algorithm that String names s.
func ParseAlgorithm(s string) (Algorithm, error) { return algorithmNames.Parse(s) }

// TableKind selects the set/map representation (Table 3); String names it
// hash or nested.
type TableKind = subst.TableKind

const (
	// Hashing keys hash sets off (vertex, state) bases — the paper's best
	// overall representation.
	Hashing = subst.Hash
	// NestedArrays indexes dense arrays by substitution key — fast when
	// dense, space-hungry when sparse.
	NestedArrays = subst.Nested
)

// ParseTableKind returns the TableKind that String names s.
func ParseTableKind(s string) (TableKind, error) { return subst.TableNames.Parse(s) }

// DomainMode selects how parameter domains are computed (Section 5.3);
// String names it refined or all.
type DomainMode = core.DomainMode

const (
	// RefinedDomains restricts each parameter to symbols occurring at its
	// (constructor, argument) positions in the graph.
	RefinedDomains = core.DomainsRefined
	// AllSymbols uses every symbol for every parameter.
	AllSymbols = core.DomainsAllSymbols
)

// ParseDomainMode returns the DomainMode that String names s.
func ParseDomainMode(s string) (DomainMode, error) { return core.DomainNames.Parse(s) }

// Options configures a query run. The zero value (or nil) requests Auto
// with hashing and refined domains.
type Options struct {
	Algorithm Algorithm
	Table     TableKind
	Domains   DomainMode
	// Backward reverses all edges before the query (Section 2.2) and, if
	// Start is empty, starts from the vertex after the exit() edge.
	Backward bool
	// Start overrides the graph's start vertex by name.
	Start string
	// Compact drops edges no transition label can match before an
	// existential query (Section 5.3).
	Compact bool
	// SCCOrder processes strongly connected components in topological
	// order, releasing per-component storage (Section 5.3); existential
	// only.
	SCCOrder bool
	// Witnesses attaches, to each existential answer, one start-to-vertex
	// path witnessing it (an error trace). Worklist algorithms only.
	Witnesses bool
	// Workers is ignored.
	//
	// Deprecated: queries always run the sequential solver. The field is
	// kept so existing callers still compile.
	Workers int
	// SlowLog, when non-nil, records queries whose wall-clock time
	// reaches its threshold as NDJSON (one record per slow query), and
	// every deadline-breached or canceled query with its reason in
	// "interrupted".
	SlowLog *SlowLog
	// Explain collects a per-query execution profile — per-state visit
	// counts, per-transition match attempts/hits/extensions, and
	// per-edge-label histograms — returned in Result.Explain. Costs one
	// branch per counter site when off; expect a few percent overhead when
	// on.
	Explain bool
	// Deadline, when > 0, bounds the whole query's wall-clock time, from
	// the entry point's call to its return — an Auto fallback to hybrid
	// included; a query that exceeds it stops at the next cancellation
	// check and returns an InterruptError wrapping ErrDeadline. It is one
	// timeout on the context, so it composes with the Context entry points
	// (ExistContext etc.): whichever fires first stops the run.
	Deadline time.Duration
	// Progress, when non-nil, receives live snapshots of the run every few
	// hundred worklist pops (and once per enumerated substitution in the
	// enumeration phases). Pops and EnumSubsts never decrease within a
	// query, across an Auto fallback to hybrid too. The callback runs on a
	// solver goroutine — keep it cheap and do not block.
	Progress func(Progress)
	// Lint runs the static query analyzer before solving and rejects the
	// query with a *LintError if it has error-severity findings (a provably
	// empty pattern, a never-binding parameter, an unsatisfiable label) —
	// the query fails fast with zero solver work. Warnings and advice do
	// not reject; retrieve them with Lint / LintForGraph. Without the gate
	// no analysis runs.
	Lint bool
	// Cache, when non-nil, memoizes compiled queries (pattern → automaton,
	// keyed by the canonical simplified AST and the graph's universe) so
	// repeated patterns skip compilation entirely. See NewQueryCache; the
	// query service shares one cache across all requests.
	Cache *QueryCache
	// OnBegin, when non-nil, is called with the query's in-flight registry
	// id just after the query is registered (the same id that appears in
	// InflightQueries and /debug/rpq/queries) and before solving starts.
	// The query service uses it to map registry ids to cancel functions;
	// the callback runs on the query's goroutine and must be cheap.
	OnBegin func(id int64)
}

// Stats reports the instrumentation of a run; see core.Stats for the
// correspondence with the paper's tables and the phase-timing breakdown of
// the observability layer (docs/observability.md). It marshals to JSON.
type Stats = core.Stats

// Explain is the per-query execution profile collected under
// Options.Explain: EXPLAIN/ANALYZE for a parametric regular path query. It
// marshals to JSON; Format renders a text report and DOT an annotated
// heat-map of the query automaton.
type Explain = core.Explain

// ---- Observability ----
//
// The types below re-export the internal/obs layer so callers can watch
// queries in flight and log slow queries; docs/observability.md documents
// the metric names and the record formats.

// SlowLog records slow and interrupted queries as NDJSON; see
// Options.SlowLog.
type SlowLog = obs.SlowLog

// Progress is one live snapshot of a running query, delivered to
// Options.Progress: the current phase, worklist pops and depth, reach-set
// and substitution-table sizes, enumeration progress, and table bytes.
type Progress = core.Progress

// InterruptError is returned when a query is canceled or exceeds its
// deadline: Reason wraps ErrCanceled or ErrDeadline, Stats carries the
// counters accumulated up to the interrupt, and Explain the partial profile
// when Options.Explain was set. Test with errors.As / errors.Is.
type InterruptError = core.InterruptError

// ErrCanceled is wrapped by InterruptError when the caller's context was
// canceled; errors.Is(err, context.Canceled) also holds.
var ErrCanceled = core.ErrCanceled

// ErrDeadline is wrapped by InterruptError when Options.Deadline (or the
// context's deadline) expired; errors.Is(err, context.DeadlineExceeded) also
// holds.
var ErrDeadline = core.ErrDeadline

// QuerySnapshot is one point-in-time view of an in-flight query, as served
// by /debug/rpq/queries and returned by InflightQueries.
type QuerySnapshot = obs.QuerySnapshot

// InflightQueries returns snapshots of the queries executing right now in
// this process, ordered by start; the same data is served as JSON at
// /debug/rpq/queries by ServeObservability.
func InflightQueries() []QuerySnapshot { return obs.DefaultInflight().Snapshots() }

// NewSlowLog returns a slow-query log writing NDJSON records to w for
// queries taking threshold or longer, and for every interrupted query.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return obs.NewSlowLog(w, threshold)
}

// SLO is one service-level objective: the service plane counts its requests
// under rpq_http_slo_total/rpq_http_slo_good; see internal/service.
type SLO = obs.SLO

// ServeObservability starts the observability plane on addr: /metrics
// (Prometheus text exposition of the default registry — the end-of-query
// latency histograms and totals every query records, the service's gauges
// and counters, and the go_* runtime metrics read at scrape time),
// /debug/rpq/ (the index), /debug/rpq/queries (JSON snapshots of in-flight
// queries) and /debug/pprof/ (on-demand profiles whose CPU samples carry
// each query's pprof labels). The listener binds
// synchronously; Close the returned server to stop it.
func ServeObservability(addr string) (*http.Server, error) { return obs.Serve(addr) }

// runState tracks one public query from beginRun to finish: the in-flight
// registry entry, which is the query's one record (identity, trace, clock
// and resource anchors, live progress).
type runState struct {
	opts *Options
	iq   *obs.InflightQuery
	// ended guards end(): the entry points defer it so the in-flight
	// registry entry is released on every exit path — including a panic
	// inside a solver variant — while the normal finish path releases it
	// exactly once.
	ended bool
	// last is the latest progress snapshot the fan-out delivered; carry
	// is the one an abandoned solver run reached, which the fan-out adds
	// so that pops and enum_substs continue across an Auto fallback.
	last, carry core.Progress
}

// do runs fn under pprof labels identifying the query — rpq_query_id (the
// in-flight registry id), rpq_kind, variant (algorithm), and table — so
// CPU and goroutine profiles taken while queries run attribute their
// samples to specific queries. Call it once per solver
// invocation; a re-run after an algorithm fallback gets fresh labels.
func (rs *runState) do(ctx context.Context, co *core.Options, fn func(ctx context.Context)) {
	labels := []string{
		"rpq_query_id", strconv.FormatInt(rs.iq.ID(), 10),
		"rpq_kind", rs.iq.Kind(),
		"variant", co.Algo.String(),
		"table", co.Table.String(),
	}
	if id := rs.iq.TraceID(); id != "" {
		labels = append(labels, "rpq_trace_id", id)
	}
	pprof.Do(ctx, pprof.Labels(labels...), fn)
}

// beginRun registers the query as in-flight and installs the run's one
// progress fan-out: each snapshot updates the in-flight handle and the
// caller's Options.Progress. It sets co.Progress. When ctx carries a trace
// context (obs.WithTrace — the service plane attaches one per HTTP
// request), the run's telemetry is stamped with it: the in-flight snapshot,
// the pprof label set, and the slow-log record. The lookup is one ctx.Value
// call per query, so library runs without a trace pay nothing measurable.
func beginRun(ctx context.Context, opts *Options, kind, query string, co *core.Options) *runState {
	tc, _ := obs.TraceFrom(ctx)
	rs := &runState{opts: opts}
	rs.iq = obs.DefaultInflight().Begin(kind, query, co.Algo.String(), tc)
	iq, userProg := rs.iq, opts.Progress
	co.Progress = func(p core.Progress) {
		p.Pops += rs.carry.Pops
		p.EnumSubsts += rs.carry.EnumSubsts
		rs.last = p
		iq.Update(p)
		if userProg != nil {
			userProg(p)
		}
	}
	if opts.OnBegin != nil {
		opts.OnBegin(rs.iq.ID())
	}
	return rs
}

// fallback re-targets the run at algo after the direct solver run failed
// its determinism check: the in-flight record shows algo from here on, and
// the counters continue from the failed run's last snapshot.
func (rs *runState) fallback(co *core.Options, algo core.Algo) {
	co.Algo = algo
	rs.carry = rs.last
	rs.iq.SetAlgo(algo.String())
}

// end unregisters the run's in-flight entry. It is idempotent, and run
// defers it immediately after beginRun so a panic escaping a
// solver variant (or any future early return) can never leave a ghost entry
// in /debug/rpq/queries. finish calls it as its final step on the normal paths.
func (rs *runState) end() {
	if rs.ended {
		return
	}
	rs.ended = true
	rs.iq.Done()
}

// Every query records these end-of-query families into the process-wide
// registry that ServeObservability serves at /metrics: its wall time, the
// per-phase breakdown of Stats.Phases, and the CPU, allocation and
// slow-query totals. Each is a few atomic adds per query.
var (
	queryHist   = obs.Default().Histogram("rpq_query_seconds", "end-to-end query latency")
	compileHist = obs.Default().Histogram("rpq_phase_compile_seconds", "pattern compilation latency per query")
	domainsHist = obs.Default().Histogram("rpq_phase_domains_seconds", "parameter-domain computation latency per query")
	solveHist   = obs.Default().Histogram("rpq_phase_solve_seconds", "worklist solve latency per query")
	enumHist    = obs.Default().Histogram("rpq_phase_enumerate_seconds", "enumeration-phase latency per query")
	slowTotal   = obs.Default().Counter("rpq_slow_queries_total", "queries exceeding the slow-query threshold")
	cpuTotalUS  = obs.Default().Counter("rpq_cpu_us_total", "process CPU time attributed to completed queries, microseconds")
	allocTotal  = obs.Default().Counter("rpq_alloc_bytes_total", "heap bytes allocated during completed queries")
)

// finish completes the run's observability: stamp the run's resource
// attribution into Stats, feed the end-of-query metrics, record the
// slow-query log entry (for a slow run, and for every
// deadline breach or cancellation with its reason), and unregister the
// in-flight entry. It handles both outcomes — res on success, err (possibly
// an *InterruptError carrying partial stats) on failure.
func (rs *runState) finish(res *Result, err error) {
	u := rs.iq.Usage()
	opts := rs.opts

	var stats *Stats
	var explain *Explain
	answers := 0
	if res != nil {
		stats = &res.Stats
		explain = res.Explain
		answers = len(res.Answers)
	}
	var ie *InterruptError
	interrupted := ""
	if errors.As(err, &ie) {
		stats = &ie.Stats
		explain = ie.Explain
		interrupted = "canceled"
		if errors.Is(err, ErrDeadline) {
			interrupted = "deadline"
		}
	}
	if stats != nil {
		stats.CPUTime = u.CPU
		stats.AllocBytes = u.Alloc
	}
	queryHist.Observe(u.Wall)
	cpuTotalUS.Add(u.CPU.Microseconds())
	allocTotal.Add(u.Alloc)
	if stats != nil {
		compileHist.Observe(stats.Phases.Compile.Wall)
		domainsHist.Observe(stats.Phases.Domains.Wall)
		solveHist.Observe(stats.Phases.Solve.Wall)
		if stats.Phases.Enumerate.Wall > 0 {
			enumHist.Observe(stats.Phases.Enumerate.Wall)
		}
		hot := any(nil)
		if explain != nil {
			hot = explain.TopStates(3)
		}
		if opts.SlowLog.Observe(rs.iq, u, answers, opts.Table.String(), stats, hot, interrupted) {
			slowTotal.Add(1)
		}
	}
	rs.end()
}

// Binding is one parameter-to-symbol binding of an answer.
type Binding struct {
	Param  string
	Symbol string
}

// Step is one edge of a witnessing path.
type Step struct {
	From  string
	Label string
	To    string
}

// Answer is one query answer: a vertex and the substitution witnessing it.
// For existential queries the substitution is minimal (every extension also
// matches); for direct universal queries it is the merge over all paths.
// Witness is populated when Options.Witnesses is set on an existential
// query: one path from the start vertex matching the pattern.
type Answer struct {
	Vertex   string
	Bindings []Binding
	Witness  []Step
}

// String renders the answer as "v {x↦a, y↦b}".
func (a Answer) String() string {
	var b strings.Builder
	b.WriteString(a.Vertex)
	b.WriteString(" {")
	for i, bd := range a.Bindings {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.Param)
		b.WriteString("↦")
		b.WriteString(bd.Symbol)
	}
	b.WriteString("}")
	return b.String()
}

// Result is a query result.
type Result struct {
	Answers []Answer
	Stats   Stats
	// Explain carries the execution profile when Options.Explain was set;
	// nil otherwise.
	Explain *Explain
}

// Filter returns a result restricted to the answers keep accepts; Stats are
// carried over unchanged. It supports the Section 5.4 direction of
// "computations involving the values of parameters": bindings are plain
// strings, so callers can apply numeric or lexical predicates to them.
func (r *Result) Filter(keep func(Answer) bool) *Result {
	out := &Result{Stats: r.Stats}
	for _, a := range r.Answers {
		if keep(a) {
			out.Answers = append(out.Answers, a)
		}
	}
	return out
}

// Binding returns the symbol bound to param in the answer, or "" if unbound.
func (a Answer) Binding(param string) string {
	for _, b := range a.Bindings {
		if b.Param == param {
			return b.Symbol
		}
	}
	return ""
}

// resolve prepares the run: option checks, algorithm mapping, direction,
// start vertex.
func (g *Graph) resolve(opts *Options, universal bool) (*graph.Graph, int32, core.Options, error) {
	if err := errors.Join(
		algorithmNames.Check(opts.Algorithm),
		subst.TableNames.Check(opts.Table),
		core.DomainNames.Check(opts.Domains),
	); err != nil {
		return nil, 0, core.Options{}, fmt.Errorf("rpq: %w", err)
	}
	ig := g.g
	if opts.Backward {
		ig = ig.Reverse()
	}
	start := ig.Start()
	if opts.Start != "" {
		v, ok := ig.LookupVertex(opts.Start)
		if !ok {
			return nil, 0, core.Options{}, &UnknownVertexError{Vertex: opts.Start}
		}
		start = v
	} else if opts.Backward {
		if name, ok := g.ExitVertex(); ok {
			start, _ = ig.LookupVertex(name)
		}
	}
	if start < 0 {
		return nil, 0, core.Options{}, fmt.Errorf("rpq: no start vertex; call SetStart or pass Options.Start")
	}
	co := core.Options{
		Algo:      coreAlgos[opts.Algorithm],
		Table:     opts.Table,
		Domains:   opts.Domains,
		Compact:   opts.Compact,
		SCCOrder:  opts.SCCOrder,
		Witnesses: opts.Witnesses,
		Explain:   opts.Explain,
	}
	switch opts.Algorithm {
	case Auto:
		co.Algo = core.AlgoMemo
		if universal {
			co.Algo = core.AlgoBasic // with hybrid fallback in run
		}
	case Hybrid:
		if !universal {
			return nil, 0, core.Options{}, ErrHybridExistential
		}
	}
	return ig, start, co, nil
}

func (g *Graph) convert(ig *graph.Graph, q *core.Query, res *core.Result) *Result {
	out := &Result{Stats: res.Stats, Explain: res.Explain}
	for _, p := range res.Pairs {
		a := Answer{Vertex: ig.VertexName(p.Vertex)}
		for i, v := range p.Subst {
			if v >= 0 {
				a.Bindings = append(a.Bindings, Binding{
					Param:  q.PS.Name(int32(i)),
					Symbol: ig.U.Syms.Name(v),
				})
			}
		}
		for _, w := range p.Witness {
			a.Witness = append(a.Witness, Step{
				From:  ig.VertexName(w.From),
				Label: w.Label.Format(ig.U),
				To:    ig.VertexName(w.To),
			})
		}
		out.Answers = append(out.Answers, a)
	}
	return out
}

// run is the one path of the three query entry points: resolve the
// options, apply the lint gate, compile through the cache, register the
// run, solve — under Auto, a universal run whose determinism check fails
// falls back to hybrid — convert the answers, and finish the run's
// telemetry, whose time and allocation figures cover the conversion too.
// Options.Deadline becomes one timeout on ctx, so it bounds the
// whole query, fallback included. kind names the query ("exist",
// "universal" or "violations") and ck its cache flavor; a violations query
// solves existentially but lints its discipline pattern as universal,
// since the violation transform supplies the bindings.
func (g *Graph) run(ctx context.Context, kind string, ck cacheKind, e pattern.Expr, src string, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	universal := kind == "universal"
	ig, start, co, err := g.resolve(opts, universal)
	if err != nil {
		return nil, err
	}
	if err := gateLint(opts, e, src, kind != "exist"); err != nil {
		return nil, err
	}
	q, err := compileForRun(opts, ig, ck, e)
	if err != nil {
		return nil, err
	}
	solve := core.ExistContext
	if universal {
		solve = core.UnivContext
	}
	rs := beginRun(ctx, opts, kind, src, &co)
	defer rs.end()
	var res *core.Result
	rs.do(ctx, &co, func(ctx context.Context) {
		res, err = solve(ctx, ig, start, q, co)
	})
	if err == core.ErrNondeterministic && opts.Algorithm == Auto {
		rs.fallback(&co, core.AlgoHybrid)
		rs.do(ctx, &co, func(ctx context.Context) {
			res, err = solve(ctx, ig, start, q, co)
		})
	}
	var out *Result
	if err == nil {
		out = g.convert(ig, q, res)
	}
	rs.finish(out, err)
	return out, err
}

// Exist runs an existential query: all ⟨v, θ⟩ such that some path from the
// start vertex to v matches the pattern under θ.
func (g *Graph) Exist(p *Pattern, opts *Options) (*Result, error) {
	return g.ExistContext(context.Background(), p, opts)
}

// ExistContext is Exist bounded by ctx (and Options.Deadline): when either
// fires, the run stops at the next cancellation check and returns an
// *InterruptError wrapping ErrCanceled or ErrDeadline with the statistics
// accumulated so far.
func (g *Graph) ExistContext(ctx context.Context, p *Pattern, opts *Options) (*Result, error) {
	return g.run(ctx, "exist", cacheKindQuery, p.expr, p.src, opts)
}

// Universal runs a universal query: all ⟨v, θ⟩ such that there is a path
// from the start vertex to v and every such path matches under θ. With
// Algorithm Auto, the direct algorithm of Section 4 is tried first and the
// hybrid algorithm is used when the runtime determinism check fails.
func (g *Graph) Universal(p *Pattern, opts *Options) (*Result, error) {
	return g.UniversalContext(context.Background(), p, opts)
}

// UniversalContext is Universal bounded by ctx (and Options.Deadline); see
// ExistContext for the cancellation semantics. The Auto fallback to the
// hybrid algorithm re-runs under the same context, so ctx's deadline and
// Options.Deadline bound both runs together, not each run afresh.
func (g *Graph) UniversalContext(ctx context.Context, p *Pattern, opts *Options) (*Result, error) {
	return g.run(ctx, "universal", cacheKindQuery, p.expr, p.src, opts)
}

// UnknownVertexError is returned when Options.Start names no vertex of the
// graph.
type UnknownVertexError struct{ Vertex string }

func (e *UnknownVertexError) Error() string {
	return fmt.Sprintf("rpq: unknown start vertex %q", e.Vertex)
}

// ErrHybridExistential is returned when an existential or violations query
// asks for the Hybrid algorithm, which answers universal queries only.
var ErrHybridExistential = core.ErrHybridExistential

// ErrNotDiscipline is wrapped by the error Violations returns when the
// discipline pattern has no labels or a label that is not a plain
// constructor application.
var ErrNotDiscipline = queries.ErrNotDiscipline

// ErrNondeterministic is returned by Universal with an explicit direct
// algorithm when the determinism condition of Section 4 fails.
var ErrNondeterministic = core.ErrNondeterministic

// Estimate is the complexity report of the paper's Figure 2 quantities and
// Section 3/4 worst-case formulas, evaluated for a query on a graph.
type Estimate = core.Estimate

// EstimateQuery computes the Figure 2 quantities and worst-case time bounds
// for running p on g (Section 5.3's refined per-parameter domains when
// mode is RefinedDomains).
func (g *Graph) EstimateQuery(p *Pattern, mode DomainMode) (Estimate, error) {
	q, err := core.Compile(p.expr, g.g.U)
	if err != nil {
		return Estimate{}, err
	}
	return core.EstimateQuery(q, g.g, mode), nil
}

// ---- Front ends ----

// MiniCConfig controls the MiniC front-end's labeling; see the analysis
// catalog for which analyses need which features.
type MiniCConfig struct {
	// UseSites labels uses as use(x, l) with distinct site numbers.
	UseSites bool
	// ExpLabels emits exp(a, op, b) for binary expressions over variables.
	ExpLabels bool
	// ConstDefs emits def(x, k) for constant assignments.
	ConstDefs bool
	// Interproc splices user-defined calls into a supergraph and tracks
	// parameter/return equalities.
	Interproc bool
	// EntryLoop adds the entry() self-loop at the program entry.
	EntryLoop bool
	// AssignEqualities unifies the sides of simple variable copies
	// (x = y), the Section 5.2 equality module for resource aliasing.
	AssignEqualities bool
}

// FromMiniC builds a program graph from MiniC source. The start vertex is
// the entry of main.
func FromMiniC(src string, cfg MiniCConfig) (*Graph, error) {
	g, err := minic.Build(src, minic.Config{
		UseSites:         cfg.UseSites,
		ExpLabels:        cfg.ExpLabels,
		ConstDefs:        cfg.ConstDefs,
		Interproc:        cfg.Interproc,
		EntryLoop:        cfg.EntryLoop,
		AssignEqualities: cfg.AssignEqualities,
	})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GoConfig controls the real-Go front end (internal/gofront).
type GoConfig struct {
	// Interproc links call sites to callee entries/exits with call/ret
	// edges, and goroutine launches to entries with go edges, producing
	// one whole-program supergraph.
	Interproc bool
	// IncludeTests also analyzes _test.go files.
	IncludeTests bool
	// Workers bounds the parallel per-function CFG construction
	// (0 = GOMAXPROCS). The resulting graph is byte-identical for every
	// worker count.
	Workers int
}

// GoProgram pairs the queryable graph with the front end's source map, so
// query answers can be projected back to file:line:col locations.
type GoProgram struct {
	*Graph
	// Program retains per-vertex source locations, retained file contents,
	// the function index, and //rpqcheck:allow suppressions.
	Program *gofront.Program
}

// FromGoPackages lowers real Go packages to a program graph using pure
// go/parser syntax analysis (no go/types, no build step). Patterns are
// directories or .go files; the go-style "dir/..." form walks recursively.
// Labels follow the unified internal/cfgschema vocabulary — def(x), use(x),
// call(f), close(x), lock(m), ... — with symbols qualified as
// pkgpath.func.var, so the paper's parametric queries run unchanged on Go
// code. The start vertex is a synthetic root with an entry(f) edge to every
// function, making every function a path source.
func FromGoPackages(patterns []string, cfg GoConfig) (*GoProgram, error) {
	p, err := gofront.Load(patterns, gofront.Config{
		Interproc:    cfg.Interproc,
		IncludeTests: cfg.IncludeTests,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &GoProgram{Graph: &Graph{g: p.Graph}, Program: p}, nil
}

// FromGoSource is FromGoPackages over in-memory sources: either a plain Go
// file body, or a txtar-style archive ("-- name --" section markers) whose
// go.mod section, when present, supplies the module path for symbol
// qualification.
func FromGoSource(body string, cfg GoConfig) (*GoProgram, error) {
	p, err := gofront.LoadSource(gofront.SplitSource(body), gofront.Config{
		Interproc:    cfg.Interproc,
		IncludeTests: cfg.IncludeTests,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &GoProgram{Graph: &Graph{g: p.Graph}, Program: p}, nil
}

// FromAUT reads a labeled transition system in the Aldébaran (.aut) format
// and applies the transformation of Section 2.3: for existential queries,
// every state gains a state(v) self-loop; for universal queries, every
// state is split into v_in --state(v)--> v_out.
func FromAUT(r io.Reader, universal bool) (*Graph, error) {
	l, err := lts.ReadAUT(r)
	if err != nil {
		return nil, err
	}
	if universal {
		return &Graph{g: l.ForUniversal()}, nil
	}
	return &Graph{g: l.ForExistential()}, nil
}

// FromXML parses an XML document into an edge-labeled graph for querying
// semi-structured data: elements become vertices with child(tag) edges and
// elem(tag)/attr(name,value)/text(value) self-loops; the start vertex is a
// synthetic root. Section 5.4 of the paper positions such queries as a
// generalization of XPath — e.g. "_* child(t) child(t)" finds a tag nested
// directly in itself, which XPath 1.0 cannot express.
func FromXML(r io.Reader) (*Graph, error) {
	g, err := xmldata.FromXML(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ---- Analysis catalog ----

// Analysis is a catalog entry: a named, documented query from the paper.
type Analysis = queries.Analysis

// Analyses returns the full catalog of the paper's analyses (Sections 2.2,
// 2.3, 5.1).
func Analyses() []Analysis { return queries.Catalog() }

// AnalysisByName looks up a catalog entry such as "uninit-uses",
// "available-expressions", or "lts-deadlock".
func AnalysisByName(name string) (Analysis, error) { return queries.ByName(name) }

// RunAnalysis runs a catalog analysis on the graph, handling the query's
// direction and kind. Options' Backward and Algorithm fields are combined
// with the analysis' own requirements.
func (g *Graph) RunAnalysis(a Analysis, opts *Options) (*Result, error) {
	return g.RunAnalysisContext(context.Background(), a, opts)
}

// RunAnalysisContext is RunAnalysis bounded by ctx (and Options.Deadline);
// see ExistContext for the cancellation semantics.
func (g *Graph) RunAnalysisContext(ctx context.Context, a Analysis, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if a.Dir == queries.Backward {
		o.Backward = true
	}
	p := &Pattern{expr: a.Expr(), src: a.Pattern}
	if a.Kind == queries.Universal {
		return g.UniversalContext(ctx, p, &o)
	}
	return g.ExistContext(ctx, p, &o)
}

// Violations derives, from a universal per-resource discipline pattern such
// as "(open(f) (access(f))* close(f))*", a single merged existential query
// finding every way the discipline can be violated (out-of-order operations
// and, when withExit is set, resources left incomplete at exit), and runs it
// (Section 5.4).
func (g *Graph) Violations(discipline string, withExit bool, opts *Options) (*Result, error) {
	return g.ViolationsContext(context.Background(), discipline, withExit, opts)
}

// ViolationsContext is Violations bounded by ctx (and Options.Deadline); see
// ExistContext for the cancellation semantics.
func (g *Graph) ViolationsContext(ctx context.Context, discipline string, withExit bool, opts *Options) (*Result, error) {
	e, err := pattern.Parse(discipline)
	if err != nil {
		return nil, err
	}
	ck := cacheKindViolations
	if withExit {
		ck = cacheKindViolationsExit
	}
	return g.run(ctx, "violations", ck, e, discipline, opts)
}
