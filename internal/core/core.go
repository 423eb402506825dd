// Package core implements the query solvers of Liu et al., "Parametric
// Regular Path Queries" (PLDI 2004): the existential algorithms of Section 3
// (basic, match-memoization, target-and-substitution-map precomputation,
// enumeration) and the universal algorithms of Section 4 (basic with runtime
// determinism checking, determinism-and-substitution-map precomputation,
// enumeration, hybrid).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"rpq/internal/automata"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/obs"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// Algo selects the algorithm variant (Sections 3, 4, 6).
type Algo int

const (
	// AlgoBasic is the plain worklist algorithm, pseudo-code (2)/(6).
	AlgoBasic Algo = iota
	// AlgoMemo adds memoization of match results (the substitution map M_s).
	AlgoMemo
	// AlgoPrecomp precomputes the target-and-substitution map M_ts
	// (existential, pseudo-code (3)/(4)) or the determinism-and-substitution
	// map M_ds (universal).
	AlgoPrecomp
	// AlgoEnum enumerates all full substitutions over the parameter domains
	// and runs a parameter-free query per substitution.
	AlgoEnum
	// AlgoHybrid (universal only) first runs an existential query, then
	// enumerates only extensions of the substitutions it found.
	AlgoHybrid
)

func (a Algo) String() string {
	switch a {
	case AlgoBasic:
		return "basic"
	case AlgoMemo:
		return "memo"
	case AlgoPrecomp:
		return "precomputation"
	case AlgoEnum:
		return "enumeration"
	case AlgoHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// DomainMode selects how parameter domains are computed for extension
// enumeration and the enumeration algorithms.
type DomainMode int

const (
	// DomainsRefined restricts each parameter to the symbols occurring in
	// the graph at the (constructor, argument-position) pairs where the
	// parameter appears in the pattern (Section 5.3's refinement of symbs).
	DomainsRefined DomainMode = iota
	// DomainsAllSymbols uses every symbol of the universe for every
	// parameter, the symbs bound of the complexity analysis.
	DomainsAllSymbols
)

// CompletionMode selects how the universal algorithms treat states with no
// matching transition.
type CompletionMode int

const (
	// Incomplete handles incomplete automata directly with the badstate
	// rules (iii)/(iv) — the paper's improvement over prior work.
	Incomplete CompletionMode = iota
	// CompleteTrap adds a trap state reached by a negated alternation of
	// each state's outgoing labels — a compact completion.
	CompleteTrap
	// CompleteExplicit adds one explicit trap transition per (state,
	// uncovered edge label) pair, the classical construction required by
	// Liu & Yu (2002); parameter-free patterns only. Its space grows with
	// states × edgelabels, which is what the paper's incomplete-automaton
	// algorithm saves.
	CompleteExplicit
)

func (c CompletionMode) String() string {
	switch c {
	case Incomplete:
		return "incomplete"
	case CompleteTrap:
		return "trap"
	case CompleteExplicit:
		return "explicit"
	}
	return fmt.Sprintf("CompletionMode(%d)", int(c))
}

// Options configures a solver run.
type Options struct {
	Algo    Algo
	Table   subst.TableKind
	Domains DomainMode
	// Completion selects the universal algorithms' automaton completion
	// (the prior-work baseline comparison); existential queries ignore it.
	Completion CompletionMode
	// SCCOrder processes vertices one strongly connected component at a
	// time in topological order, releasing per-component reach-set storage
	// when a component is finished (Section 5.3). Existential only.
	SCCOrder bool
	// Compact drops edges no transition label can match before solving
	// (Section 5.3). Existential only; universal queries quantify over all
	// paths, so compaction would change their meaning.
	Compact bool
	// Witnesses records, for each existential answer, one path from the
	// start vertex witnessing it (the error trace). Costs parent pointers
	// for the whole reach set. Worklist algorithms only; ignored by
	// enumeration and by universal queries (whose answers quantify over
	// all paths).
	Witnesses bool
	// Explain collects a per-query execution profile (per-state visit
	// counts, per-transition match attempt/hit/extension counters and
	// per-edge-label match histograms) into Result.Explain. Disabled it
	// costs one nil check per counted event; see explain.go.
	Explain bool
	// Progress, when non-nil, is the run's one live channel: it receives a
	// snapshot every few hundred worklist pops, once per enumerated
	// substitution, and once when a worklist solve drains (see Progress
	// for what each field means). It should be cheap — it runs on the
	// solver's hot path.
	Progress func(Progress)

	// cxl is the cancellation watcher solve installs from the run's context;
	// nil for uncancelable runs, so the loop checks cost one pointer test.
	cxl *canceler
}

// Progress is one live snapshot of a running query, delivered to
// Options.Progress.
type Progress = obs.Progress

// solve is the one harness under ExistContext and UnivContext: it checks
// the start vertex, arms the canceler from ctx (the hybrid's existential
// pass arrives with its run's canceler already armed), applies Compact,
// runs the variant, and stamps the Solve and Compile walls into the stats
// of either outcome — the result, or the InterruptError's partial stats.
func solve(ctx context.Context, g *graph.Graph, v0 int32, q *Query, opts Options, run func(*graph.Graph, int32, *Query, Options) (*Result, error)) (*Result, error) {
	if int(v0) >= g.NumVertices() || v0 < 0 {
		return nil, fmt.Errorf("core: start vertex %d out of range", v0)
	}
	if opts.cxl == nil {
		cxl, release := newCanceler(ctx)
		defer release()
		opts.cxl = cxl
	}
	t0 := phaseStart()
	if opts.Compact {
		g = g.CompactFor(q.NFA.Labels)
	}
	res, err := run(g, v0, q, opts)
	var stats *Stats
	if err == nil {
		stats = &res.Stats
	} else {
		var ie *InterruptError
		if !errors.As(err, &ie) {
			return nil, err
		}
		stats = &ie.Stats
	}
	stats.Phases.Solve.Wall = phaseWall(t0)
	stats.Phases.Compile.Wall = q.BuildWall()
	return res, err
}

// domainsPhase opens a solver run's stats with the Domains phase: the
// parameter domains of q over g, timed. DeterminismOK holds until a
// universal determinism check fails.
func domainsPhase(q *Query, g *graph.Graph, mode DomainMode, stats *Stats) subst.Domains {
	stats.DeterminismOK = true
	t0 := phaseStart()
	doms := ComputeDomains(q, g, mode)
	stats.Phases.Domains.Wall = phaseWall(t0)
	return doms
}

// end is the one tail of the five solvers, for both outcomes. The solver
// has filled the counters only it knows — ReachSize, Substs or EnumSubsts,
// and for a finished run its own storage in Bytes. end counts the result
// pairs and attaches ex's profile; an interrupted run then returns the
// InterruptError carrying the partial stats, and a finished one the sorted
// pairs with their storage added to Bytes.
func end(q *Query, g *graph.Graph, opts Options, stats Stats, pairs []Pair, ex *explainCollector, interrupted bool) (*Result, error) {
	stats.ResultPairs = len(pairs)
	var rep *Explain
	if ex != nil {
		rep = ex.report(q, g, opts.Algo)
	}
	if interrupted {
		return nil, opts.cxl.interrupt(stats, rep)
	}
	stats.Bytes += pairsBytes(len(pairs), q.Pars())
	sortPairs(pairs)
	return &Result{Pairs: pairs, Stats: stats, Explain: rep}, nil
}

// Stats instruments a run with the quantities reported in the paper's
// Tables 1-3 and Figure 3, plus the phase timings and cache counters of the
// observability layer. The struct marshals to JSON for machine-comparable
// runs (cmd/rpq -stats json, cmd/bench).
type Stats struct {
	// WorklistInserts counts elements inserted into the worklist — the
	// "worklist" columns of Tables 1 and 2.
	WorklistInserts int `json:"worklist_inserts"`
	// ReachSize is the size of the reach set R when the run finishes.
	ReachSize int `json:"reach_size"`
	// MatchCalls counts invocations of the match operation (cache misses
	// only, under memoization/precomputation).
	MatchCalls int `json:"match_calls"`
	// MatchCacheHits counts match lookups answered from the memoized
	// substitution map M_s (memoization/precomputation only).
	MatchCacheHits int `json:"match_cache_hits"`
	// MatchCacheMisses counts match lookups that had to compute (and
	// cache) a fresh result; equals the memoized portion of MatchCalls.
	MatchCacheMisses int `json:"match_cache_misses"`
	// MergeCalls counts merge operations.
	MergeCalls int `json:"merge_calls"`
	// Substs is the number of distinct substitutions interned, the
	// "substs" quantity of Figure 2 (excluding badsubst).
	Substs int `json:"substs"`
	// EnumSubsts is the number of full substitutions enumerated by the
	// enumeration and hybrid algorithms — the "substs" column of Tables
	// 1-2.
	EnumSubsts int `json:"enum_substs"`
	// ResultPairs is the size of the query result.
	ResultPairs int `json:"result_pairs"`
	// Bytes approximates the memory used by the run's data structures, for
	// the Table 3 comparison. Every algorithm variant and both table
	// representations account the same classes of storage: the reach set
	// (its peak when SCCOrder releases components, or the per-substitution
	// peak under enumeration), the substitution-interning table, the match
	// memo M_s, the precomputed M_ts/M_ds maps, per-vertex result
	// bookkeeping, auxiliary enumeration tables, and the result pairs.
	// Go runtime overheads (GC headers, map buckets beyond the modeled 48
	// bytes/entry) are not included.
	Bytes int64 `json:"bytes"`
	// DeterminismOK reports whether the universal determinism condition
	// held (always true for existential runs).
	DeterminismOK bool `json:"determinism_ok"`
	// PeakTriples is the maximum number of live reach-set triples; with
	// SCCOrder it can be far below ReachSize.
	PeakTriples int `json:"peak_triples"`
	// CPUTime is the process CPU time (user + system) attributed to the
	// query by the public layer: the getrusage delta across the run.
	// Under concurrent queries the delta includes other queries' work, so
	// it is an upper bound; exact attribution comes from the pprof labels
	// applied around every run. Zero when the run bypassed the public
	// layer (direct core calls) or on platforms without getrusage(2).
	CPUTime time.Duration `json:"cpu_ns,omitempty"`
	// AllocBytes is the heap allocation attributed to the query by the
	// public layer, with the same process-delta caveat as CPUTime.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Phases is the phase-level timing breakdown of the run.
	Phases PhaseTimings `json:"phases"`
}

// PhaseTimings is the wall-clock breakdown of one query run into its coarse
// phases.
type PhaseTimings struct {
	// Compile covers pattern normalization and automaton construction —
	// the ε-free NFA, plus the opaque-label determinization for universal
	// worklist runs. It is recorded once per compiled Query and copied
	// into every run's stats.
	Compile PhaseStat `json:"compile"`
	// Domains covers parameter-domain computation (Section 5.3).
	Domains PhaseStat `json:"domains"`
	// Solve is the whole solver pass, from after compilation to the
	// sorted result (it includes Domains and Enumerate).
	Solve PhaseStat `json:"solve"`
	// Enumerate is the portion of Solve spent running per-substitution
	// ground queries; zero for the worklist algorithms.
	Enumerate PhaseStat `json:"enumerate"`
}

// PhaseStat is the cost of one phase: its wall time. Stats.AllocBytes is
// the query's allocation figure.
type PhaseStat struct {
	Wall time.Duration `json:"wall_ns"`
}

// WitnessStep is one edge of a witnessing path: its source, the record of
// its label in the solved graph's slab, and its target.
type WitnessStep struct {
	From  int32
	Label label.Ground
	To    int32
}

// Pair is one query answer: a vertex together with a substitution. With
// Options.Witnesses, Witness holds one start-to-vertex path matching the
// pattern under (an extension of) the substitution.
type Pair struct {
	Vertex  int32
	Subst   subst.Subst
	Witness []WitnessStep
}

// Result is a query result: answer pairs plus run statistics. Pairs are
// sorted by vertex, then substitution, for deterministic output. Explain is
// non-nil only when Options.Explain was set.
type Result struct {
	Pairs   []Pair
	Stats   Stats
	Explain *Explain
}

// Format renders the result with names resolved against the query.
func (r *Result) Format(g *graph.Graph, q *Query) string {
	s := ""
	for _, p := range r.Pairs {
		s += fmt.Sprintf("%s %s\n", g.VertexName(p.Vertex), p.Subst.Format(g.U, q.PS))
	}
	return s
}

// FormatWitness renders a witnessing path as "v1 -def(a)-> v2 -…-> vn".
func FormatWitness(g *graph.Graph, w []WitnessStep) string {
	if len(w) == 0 {
		return ""
	}
	s := g.VertexName(w[0].From)
	for _, st := range w {
		s += fmt.Sprintf(" -%s-> %s", st.Label.Format(g.U), g.VertexName(st.To))
	}
	return s
}

// Query is a pattern compiled for querying: the ε-free NFA (existential
// algorithms), its opaque-label determinization (universal algorithms), the
// parameter space, and derived metadata. A compiled Query is safe for
// concurrent use by multiple solver runs — the query-service layer caches
// and shares them — as long as no caller mutates the exported fields after
// Compile.
type Query struct {
	Expr pattern.Expr
	// U is the overlay of the graph's universe that the pattern's names
	// were compiled against; it resolves the graph's names and the
	// pattern's own.
	U   *label.Universe
	PS  *label.ParamSpace
	NFA *automata.NFA
	// CompileWall is the wall-clock time Compile spent normalizing the
	// pattern and building the NFA.
	CompileWall time.Duration
	// dfa is the subset-construction determinization of NFA, built on first
	// use by the universal solvers; dfaMu serializes the lazy build so a
	// cached Query shared by concurrent universal runs determinizes once.
	dfaMu sync.Mutex
	dfa   *automata.NFA
	// overlay is U's storage for a query Compile built.
	overlay label.Universe
}

// Compile compiles a pattern against a universe (normally the graph's). The
// pattern is simplified first (language-preserving normalization), keeping
// the automaton small. Compiling writes nothing to u: names u lacks get
// keys of the query's own universe, an overlay of u (see
// label.Universe.Overlay), and match no edge label.
func Compile(e pattern.Expr, u *label.Universe) (*Query, error) {
	t0 := time.Now() //rpqvet:allow timenow (one-shot compile wall clock, not per-pop)
	e = pattern.Simplify(e)
	q := &Query{Expr: e, PS: &label.ParamSpace{}}
	q.overlay = u.Overlay()
	q.U = &q.overlay
	nfa, err := automata.FromPattern(e, q.U, q.PS)
	if err != nil {
		return nil, err
	}
	q.NFA, q.CompileWall = nfa, time.Since(t0)
	return q, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(e pattern.Expr, u *label.Universe) *Query {
	q, err := Compile(e, u)
	if err != nil {
		panic(err)
	}
	return q
}

// Pars returns the number of parameters in the pattern.
func (q *Query) Pars() int { return q.PS.Len() }

// DFA returns the opaque-label determinization, building it on first use.
// Safe for concurrent use: the first caller builds, later callers reuse.
func (q *Query) DFA() *automata.NFA {
	q.dfaMu.Lock()
	defer q.dfaMu.Unlock()
	if q.dfa == nil {
		q.dfa = automata.Determinize(q.NFA)
	}
	return q.dfa
}

// BuildWall is the total automaton-construction wall time attributable to
// this query so far: compilation plus the determinization if it was built.
func (q *Query) BuildWall() time.Duration {
	d := q.CompileWall
	q.dfaMu.Lock()
	if q.dfa != nil {
		d += q.dfa.BuildWall
	}
	q.dfaMu.Unlock()
	return d
}

// ErrNondeterministic is returned by the universal basic/memo/precomp
// algorithms when the determinism condition of Section 4 fails at runtime;
// callers should fall back to AlgoHybrid or AlgoEnum.
var ErrNondeterministic = fmt.Errorf("core: universal determinism check failed; use the hybrid or enumeration algorithm")

// ErrHybridExistential is returned when an existential query asks for
// AlgoHybrid, which answers universal queries only.
var ErrHybridExistential = fmt.Errorf("core: the hybrid algorithm applies to universal queries only")

// ComputeDomains derives the candidate symbol sets for each parameter
// against a graph, per the options' DomainMode. A refined domain is the
// sorted union of the symbols the graph's label index lists at the
// (constructor, argument index) positions where the parameter occurs,
// positive occurrences preferred (Section 5.3). A parameter that occurs at
// one position gets the index's own slice, so the result is read-only.
func ComputeDomains(q *Query, g *graph.Graph, mode DomainMode) subst.Domains {
	pars := q.Pars()
	if mode == DomainsAllSymbols || pars == 0 {
		return subst.Uniform(pars, g.U.AllSymbols())
	}
	ix := g.LabelIndex()
	doms := make(subst.Domains, pars)
	for p := range doms {
		use := paramPositions(q, int32(p), make([]position, 0, 8))
		switch len(use) {
		case 0:
			doms[p] = g.U.AllSymbols()
		case 1:
			doms[p] = ix.Symbols(use[0].ctor, use[0].arg)
		default:
			n := 0
			for _, k := range use {
				n += len(ix.Symbols(k.ctor, k.arg))
			}
			dom := make([]int32, 0, n)
			for _, k := range use {
				dom = append(dom, ix.Symbols(k.ctor, k.arg)...)
			}
			slices.Sort(dom)
			doms[p] = slices.Compact(dom)
		}
	}
	return doms
}

// position is a (constructor, argument index) pair of a label.
type position struct {
	ctor int32
	arg  int
}

// paramPositions appends to buf the distinct positions at which parameter
// p occurs positively in the query's transition labels or, if it never
// does, the positions at which it occurs at all.
func paramPositions(q *Query, p int32, buf []position) []position {
	add := func(param, ctor int32, arg int) {
		if k := (position{ctor, arg}); param == p && !slices.Contains(buf, k) {
			buf = append(buf, k)
		}
	}
	for _, tl := range q.NFA.Labels {
		tl.PositivePositions(add)
	}
	if len(buf) == 0 {
		for _, tl := range q.NFA.Labels {
			tl.AllPositions(add)
		}
	}
	return buf
}

// sortPairs orders result pairs canonically.
func sortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.Vertex != b.Vertex {
			return a.Vertex < b.Vertex
		}
		for k := range a.Subst {
			if a.Subst[k] != b.Subst[k] {
				return a.Subst[k] < b.Subst[k]
			}
		}
		return false
	})
}
