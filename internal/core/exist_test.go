package core

import (
	"fmt"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// figure1 is the paper's Figure 1 program graph.
const figure1 = `
start v1
edge v1 def(a) v2
edge v2 use(a) v3
edge v3 def(a) v4
edge v4 use(b) v5
edge v5 def(b) v6
edge v6 use(a) v7
edge v6 use(c) v7
`

// run compiles and executes an existential query, failing the test on error.
func run(t *testing.T, g *graph.Graph, pat string, opts Options) *Result {
	t.Helper()
	q := MustCompile(pattern.MustParse(pat), g.U)
	res, err := Exist(g, g.Start(), q, opts)
	if err != nil {
		t.Fatalf("Exist(%q): %v", pat, err)
	}
	return res
}

// pairsAsStrings renders result pairs readably for comparison.
func pairsAsStrings(g *graph.Graph, q *Query, res *Result) []string {
	var out []string
	for _, p := range res.Pairs {
		out = append(out, fmt.Sprintf("%s %s", g.VertexName(p.Vertex), p.Subst.Format(g.U, q.PS)))
	}
	return out
}

// subtestAlgo and subtestTable name the solver choices in subtest names.
// They are fixed here rather than read from the wire names, so that
// renaming a wire name does not rename the tests.
var (
	subtestAlgo = map[Algo]string{
		AlgoBasic: "basic", AlgoMemo: "memo", AlgoPrecomp: "precomputation",
		AlgoEnum: "enumeration", AlgoHybrid: "hybrid",
	}
	subtestTable = map[subst.TableKind]string{subst.Hash: "hashing", subst.Nested: "nested"}
)

func TestExistUninitFigure1(t *testing.T) {
	g := graph.MustReadString(figure1)
	for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp} {
		for _, tk := range []subst.TableKind{subst.Hash, subst.Nested} {
			name := subtestAlgo[algo] + "-" + subtestTable[tk]
			t.Run(name, func(t *testing.T) {
				q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
				res, err := Exist(g, g.Start(), q, Options{Algo: algo, Table: tk})
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]bool{}
				for _, s := range pairsAsStrings(g, q, res) {
					got[s] = true
				}
				// Uses of uninitialized variables: b just before v5, c just
				// before v7. The use of a at v7 is preceded by def(a).
				want := []string{"v5 {x↦b}", "v7 {x↦c}"}
				if len(got) != len(want) {
					t.Fatalf("result = %v, want %v", got, want)
				}
				for _, w := range want {
					if !got[w] {
						t.Fatalf("missing %q in %v", w, got)
					}
				}
			})
		}
	}
}

func TestExistFirstUseFigure1(t *testing.T) {
	g := graph.MustReadString(figure1)
	res := run(t, g, "(!(def(x)|use(x)))* use(x)", Options{})
	q := MustCompile(pattern.MustParse("(!(def(x)|use(x)))* use(x)"), g.U)
	_ = q
	if len(res.Pairs) != 2 {
		t.Fatalf("first-use result has %d pairs, want 2", len(res.Pairs))
	}
}

func TestExistEmptyPathAnswer(t *testing.T) {
	g := graph.MustReadString("start v1\nedge v1 def(a) v2\n")
	res := run(t, g, "_*", Options{})
	// _* accepts the empty path, so v1 itself is an answer.
	found := false
	for _, p := range res.Pairs {
		if g.VertexName(p.Vertex) == "v1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("v1 missing from _* result: %v", res.Pairs)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("got %d pairs, want 2 (v1 and v2)", len(res.Pairs))
	}
}

func TestExistCycleTermination(t *testing.T) {
	g := graph.MustReadString(`
start a
edge a def(x1) b
edge b use(x2) a
edge b f() c
`)
	res := run(t, g, "_* f()", Options{})
	if len(res.Pairs) != 1 || g.VertexName(res.Pairs[0].Vertex) != "c" {
		t.Fatalf("cycle query result: %v", res.Pairs)
	}
}

func TestExistBackwardLiveVariables(t *testing.T) {
	// Live variables: backward query _* use(x) (!def(x))* on the reversed
	// graph (Section 2.2). On Figure 1, from the exit v7 backwards.
	g := graph.MustReadString(figure1)
	r := g.Reverse()
	v7, _ := r.LookupVertex("v7")
	q := MustCompile(pattern.MustParse("_* use(x) (!def(x))*"), r.U)
	res, err := Exist(r, v7, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a is live at v6 (used on v6->v7 edge, not redefined before in the
	// reversed path sense); check a few known facts.
	byVertex := map[string]map[string]bool{}
	for _, p := range res.Pairs {
		vn := r.VertexName(p.Vertex)
		if byVertex[vn] == nil {
			byVertex[vn] = map[string]bool{}
		}
		byVertex[vn][p.Subst.Format(r.U, q.PS)] = true
	}
	if !byVertex["v6"]["{x↦a}"] {
		t.Errorf("a should be live at v6: %v", byVertex["v6"])
	}
	if !byVertex["v1"]["{x↦b}"] {
		t.Errorf("b should be live at v1 (used at v4->v5 before def): %v", byVertex["v1"])
	}
	if byVertex["v5"]["{x↦b}"] {
		t.Errorf("b should not be live at v5 (defined at v5->v6): %v", byVertex["v5"])
	}
}

func TestExistVariantsAgreeExactly(t *testing.T) {
	// Basic, memo, and precomputation implement the same function; their
	// results must be identical, across both table kinds and compaction.
	graphs := []string{
		figure1,
		`start a
edge a open(f1) b
edge b access(f1) c
edge c close(f1) d
edge b open(f2) c
edge d seteuid(1) e
edge c seteuid(0) d`,
		`start s
edge s acq(l1) a
edge a acq(l2) b
edge b rel(l2) c
edge c rel(l1) s
edge b x() d`,
	}
	pats := []string{
		"(!def(x))* use(x)",
		"_* open(f) (!close(f))* seteuid(!0)",
		"_* acq(l1) (!rel(l1))* acq(l2) _*",
		"_*",
		"(!(def(x)|use(x)))* use(x)",
	}
	for gi, gs := range graphs {
		g := graph.MustReadString(gs)
		for _, pat := range pats {
			q := MustCompile(pattern.MustParse(pat), g.U)
			base, err := Exist(g, g.Start(), q, Options{Algo: AlgoBasic})
			if err != nil {
				t.Fatal(err)
			}
			ref := fmt.Sprint(pairsAsStrings(g, q, base))
			for _, opts := range []Options{
				{Algo: AlgoMemo},
				{Algo: AlgoPrecomp},
				{Algo: AlgoBasic, Table: subst.Nested},
				{Algo: AlgoMemo, Table: subst.Nested},
				{Algo: AlgoPrecomp, Table: subst.Nested},
				{Algo: AlgoBasic, Compact: true},
				{Algo: AlgoBasic, Domains: DomainsAllSymbols},
				{Algo: AlgoBasic, SCCOrder: true},
				{Algo: AlgoMemo, SCCOrder: true, Table: subst.Nested},
				{Algo: AlgoPrecomp, SCCOrder: true},
			} {
				res, err := Exist(g, g.Start(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(pairsAsStrings(g, q, res)); got != ref {
					t.Errorf("graph %d %q opts %+v: %s != %s", gi, pat, opts, got, ref)
				}
			}
			// Same reach statistics for basic vs memo vs precomp.
			memo, _ := Exist(g, g.Start(), q, Options{Algo: AlgoMemo})
			if memo.Stats.WorklistInserts != base.Stats.WorklistInserts {
				t.Errorf("graph %d %q: memo worklist %d != basic %d",
					gi, pat, memo.Stats.WorklistInserts, base.Stats.WorklistInserts)
			}
			if memo.Stats.MatchCalls > base.Stats.MatchCalls {
				t.Errorf("graph %d %q: memoization did not reduce match calls (%d > %d)",
					gi, pat, memo.Stats.MatchCalls, base.Stats.MatchCalls)
			}
		}
	}
}

// expand builds the set of (vertex, full substitution) strings obtained by
// extending each result substitution over the given domains.
func expand(res *Result, doms subst.Domains, pars int) map[string]bool {
	out := map[string]bool{}
	for _, p := range res.Pairs {
		v := p.Vertex
		subst.ForEachExtension(p.Subst, subst.AllParams(pars), doms, func(th subst.Subst) bool {
			out[fmt.Sprintf("%d%s", v, th.String())] = true
			return true
		})
	}
	return out
}

func TestExistEnumAgreesModuloExtension(t *testing.T) {
	g := graph.MustReadString(figure1)
	pats := []string{
		"(!def(x))* use(x)",
		"(!(def(x)|use(x)))* use(x)",
		"_* use(x)",
		"def(x)* use(y)",
	}
	for _, pat := range pats {
		for _, dm := range []DomainMode{DomainsRefined, DomainsAllSymbols} {
			q := MustCompile(pattern.MustParse(pat), g.U)
			doms := ComputeDomains(q, g, dm)
			basic, err := Exist(g, g.Start(), q, Options{Algo: AlgoBasic, Domains: dm})
			if err != nil {
				t.Fatal(err)
			}
			enum, err := Exist(g, g.Start(), q, Options{Algo: AlgoEnum, Domains: dm})
			if err != nil {
				t.Fatal(err)
			}
			be := expand(basic, doms, q.Pars())
			ee := expand(enum, doms, q.Pars())
			if len(be) != len(ee) {
				t.Fatalf("%q (%v): expanded sizes differ: basic %d, enum %d", pat, dm, len(be), len(ee))
			}
			for k := range be {
				if !ee[k] {
					t.Fatalf("%q (%v): enum missing %s", pat, dm, k)
				}
			}
		}
	}
}

func TestExistStatsSanity(t *testing.T) {
	g := graph.MustReadString(figure1)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	res, err := Exist(g, g.Start(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.WorklistInserts <= 0 || s.ReachSize != s.WorklistInserts {
		t.Errorf("worklist/reach stats: %+v", s)
	}
	if s.Substs <= 0 || s.Bytes <= 0 || !s.DeterminismOK {
		t.Errorf("stats: %+v", s)
	}
	if s.ResultPairs != len(res.Pairs) {
		t.Errorf("ResultPairs %d != %d", s.ResultPairs, len(res.Pairs))
	}
}

func TestExistDomainsRefinedSmaller(t *testing.T) {
	g := graph.MustReadString(figure1)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	ref := ComputeDomains(q, g, DomainsRefined)
	all := ComputeDomains(q, g, DomainsAllSymbols)
	if len(ref[0]) > len(all[0]) {
		t.Fatalf("refined domain larger than all-symbols: %d > %d", len(ref[0]), len(all[0]))
	}
	// x occurs positively in use(x): its domain is the used variables a,b,c.
	if len(ref[0]) != 3 {
		t.Fatalf("refined domain = %d symbols, want 3 (a, b, c)", len(ref[0]))
	}
}

func TestExistBadStart(t *testing.T) {
	g := graph.MustReadString(figure1)
	q := MustCompile(pattern.MustParse("_*"), g.U)
	if _, err := Exist(g, -1, q, Options{}); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := Exist(g, 99, q, Options{}); err == nil {
		t.Fatal("out-of-range start accepted")
	}
	if _, err := Exist(g, g.Start(), q, Options{Algo: AlgoHybrid}); err == nil {
		t.Fatal("hybrid accepted for existential query")
	}
}

func TestExistFreedMemory(t *testing.T) {
	// The freed-memory example of Section 2.2.
	g := graph.MustReadString(`
start e
edge e malloc(p1) a
edge a free(p1) b
edge b deref(p1) c
edge b malloc(p1) d
edge d deref(p1) f
`)
	res := run(t, g, "_* free(p) (!malloc(p))* (free(p)|deref(p))", Options{})
	if len(res.Pairs) != 1 {
		t.Fatalf("freed-memory query: %d pairs, want 1 (the deref at c)", len(res.Pairs))
	}
	if g.VertexName(res.Pairs[0].Vertex) != "c" {
		t.Fatalf("freed-memory hit at %s, want c", g.VertexName(res.Pairs[0].Vertex))
	}
}
