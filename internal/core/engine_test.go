package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

func TestTripleSetBasics(t *testing.T) {
	for _, kind := range []subst.TableKind{subst.Hash, subst.Nested} {
		t.Run(subtestTable[kind], func(t *testing.T) {
			ts, err := newTripleSet(kind, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			a := triple{v: 1, s: 2, th: 0}
			if !ts.Add(a) {
				t.Fatal("first Add returned false")
			}
			if ts.Add(a) {
				t.Fatal("duplicate Add returned true")
			}
			if !ts.Add(triple{v: 1, s: 2, th: 1}) || !ts.Add(triple{v: 1, s: 1, th: 0}) {
				t.Fatal("distinct triples rejected")
			}
			// badsubst key is representable.
			if !ts.Add(triple{v: 0, s: 0, th: badSubstKey}) {
				t.Fatal("badsubst triple rejected")
			}
			if ts.Add(triple{v: 0, s: 0, th: badSubstKey}) {
				t.Fatal("duplicate badsubst accepted")
			}
			if ts.Len() != 4 {
				t.Fatalf("Len = %d, want 4", ts.Len())
			}
			if ts.Bytes() <= 0 {
				t.Fatalf("Bytes = %d", ts.Bytes())
			}
			before := ts.Bytes()
			ts.Release(1)
			if ts.Bytes() >= before {
				t.Fatalf("Release did not reduce Bytes: %d >= %d", ts.Bytes(), before)
			}
			// Len is unchanged by Release (it counts inserts, not storage).
			if ts.Len() != 4 {
				t.Fatalf("Len after Release = %d", ts.Len())
			}
		})
	}
}

func TestTripleSetEquivalence(t *testing.T) {
	f := func(ops []struct{ V, S, Th uint8 }) bool {
		h, _ := newTripleSet(subst.Hash, 8, 5)
		n, _ := newTripleSet(subst.Nested, 8, 5)
		for _, op := range ops {
			tr := triple{v: int32(op.V % 8), s: int32(op.S % 5), th: int32(op.Th%7) - 1}
			if h.Add(tr) != n.Add(tr) {
				return false
			}
		}
		return h.Len() == n.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMemoCaching(t *testing.T) {
	g := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 def(a) v0
edge v1 use(a) v2
`)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	var stats Stats
	e, err := newEngine(g, q, q.NFA, Options{Algo: AlgoMemo}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	tl := q.NFA.Labels[0]
	tlID := q.NFA.LabelID[tl.Key()]
	elID := g.Out(g.Start())[0].LabelID
	m1 := e.match(tl, tlID, elID)
	calls := stats.MatchCalls
	m2 := e.match(tl, tlID, elID)
	if stats.MatchCalls != calls {
		t.Fatalf("second match recomputed (calls %d -> %d)", calls, stats.MatchCalls)
	}
	if m1 != m2 {
		t.Fatalf("memo returned codes %d then %d", m1, m2)
	}
	// Non-matching pairs are cached too (negative caching).
	var defTl *label.CTerm
	for _, l := range q.NFA.Labels {
		if len(l.Params()) > 0 && l.Kind == label.KApp {
			defTl = l // use(x)
		}
	}
	if defTl == nil {
		t.Fatal("use(x) label not found")
	}
	useID := q.NFA.LabelID[defTl.Key()]
	if got := e.match(defTl, useID, elID); got != codeFailed {
		t.Fatalf("use(x) matched def(a): code %d", got)
	}
	calls = stats.MatchCalls
	if e.match(defTl, useID, elID) != codeFailed || stats.MatchCalls != calls {
		t.Fatalf("negative result not cached")
	}
}

func TestForEachMatchGenericLabel(t *testing.T) {
	// A label with two parameter-carrying negations is outside the
	// agree/disagree fragment and exercises the generic extension path.
	g := graph.MustReadString(`
start v0
edge v0 f(a,b) v1
`)
	q := MustCompile(pattern.MustParse("f(!x,!y)"), g.U)
	tl := q.NFA.Labels[0]
	if tl.ADCompatible() {
		t.Fatalf("f(!x,!y) should not be AD-compatible")
	}
	res, err := Exist(g, g.Start(), q, Options{Domains: DomainsAllSymbols})
	if err != nil {
		t.Fatal(err)
	}
	// f(!x,!y) matches f(a,b) under θ iff θ(x)≠a and θ(y)≠b; with symbols
	// {a, b} the only answer is {x↦b, y↦a}.
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %v", res.Pairs)
	}
	got := res.Pairs[0].Subst.Format(g.U, q.PS)
	if got != "{x↦b, y↦a}" {
		t.Fatalf("substitution = %s", got)
	}
}

func TestDisagreeExtensionEnumeration(t *testing.T) {
	// (!def(x))* against a def edge must enumerate x over the domain minus
	// the defined variable (the forward-query cost of Section 5.1).
	g := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v0 use(a) v2
edge v0 use(b) v2
edge v0 use(c) v2
`)
	q := MustCompile(pattern.MustParse("(!def(x))* def('a')"), g.U)
	res, err := Exist(g, g.Start(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The def('a') edge is matched from the start state with θ={}; the
	// star-taken path (def(a) then …) cannot recur since v1 has no out
	// edges. So the only answers are at v1: one from the empty-star
	// prefix, and — none via the star, because taking (!def(x)) on def(a)
	// binds x≠a but then no further def('a') edge exists.
	if len(res.Pairs) != 1 {
		t.Fatalf("pairs = %v", res.Pairs)
	}
	if res.Pairs[0].Subst.NumBound() != 0 {
		t.Fatalf("expected the minimal empty substitution, got %s",
			res.Pairs[0].Subst.Format(g.U, q.PS))
	}
	// Now a graph where the star must consume a def edge.
	g2 := graph.MustReadString(`
start v0
edge v0 def(b) v1
edge v1 def(a) v2
`)
	q2 := MustCompile(pattern.MustParse("(!def(x))* def('a')"), g2.U)
	res2, err := Exist(g2, g2.Start(), q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Matching paths: def(b) def(a) with x bound ≠ b — every domain symbol
	// except b (domain of x = defined variables = {a, b}) → x↦a.
	found := map[string]bool{}
	for _, p := range res2.Pairs {
		found[p.Subst.Format(g2.U, q2.PS)] = true
	}
	if !found["{x↦a}"] || found["{x↦b}"] {
		t.Fatalf("disagree enumeration wrong: %v", found)
	}
}

func TestUnivStatsSanity(t *testing.T) {
	g := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 def(a) v2
`)
	q := MustCompile(pattern.MustParse("def(x)*"), g.U)
	res, err := Univ(g, g.Start(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.WorklistInserts <= 0 || s.ReachSize != s.WorklistInserts || !s.DeterminismOK {
		t.Errorf("stats: %+v", s)
	}
	if s.Bytes <= 0 || s.ResultPairs != len(res.Pairs) {
		t.Errorf("stats: %+v", s)
	}
}

func TestComputeDomainsFallbacks(t *testing.T) {
	g := graph.MustReadString("start v0\nedge v0 def(a) v1\n")
	// Parameter occurring only under a negation falls back to negated
	// positions; a parameter at no position falls back to all symbols.
	q := MustCompile(pattern.MustParse("(!def(x))*"), g.U)
	doms := ComputeDomains(q, g, DomainsRefined)
	if len(doms) != 1 || len(doms[0]) != 1 {
		t.Fatalf("negation-position domain = %v", doms)
	}
	// Zero parameters.
	q2 := MustCompile(pattern.MustParse("def('a')*"), g.U)
	if doms := ComputeDomains(q2, g, DomainsRefined); len(doms) != 0 {
		t.Fatalf("ground pattern domains = %v", doms)
	}
}

func TestAlgoAndModeStrings(t *testing.T) {
	for want, got := range map[string]fmt.Stringer{
		"basic":      AlgoBasic,
		"memo":       AlgoMemo,
		"precomp":    AlgoPrecomp,
		"enum":       AlgoEnum,
		"hybrid":     AlgoHybrid,
		"refined":    DomainsRefined,
		"all":        DomainsAllSymbols,
		"incomplete": Incomplete,
		"trap":       CompleteTrap,
		"explicit":   CompleteExplicit,
	} {
		if got.String() != want {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), want)
		}
	}
}

func TestLargeRandomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// A larger random cyclic graph: all worklist variants agree and finish.
	rng := rand.New(rand.NewSource(99))
	g := graph.New()
	n := 300
	labels := []string{"def(a)", "def(b)", "def(c)", "use(a)", "use(b)", "use(c)", "nop()"}
	for i := 0; i < n; i++ {
		g.Vertex(fmt.Sprintf("v%d", i))
	}
	g.SetStart(0)
	for i := 0; i < 4*n; i++ {
		lbl := label.MustParse(labels[rng.Intn(len(labels))], label.GroundMode)
		_ = g.AddEdge(int32(rng.Intn(n)), lbl, int32(rng.Intn(n)))
	}
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	ref, err := Exist(g, g.Start(), q, Options{Algo: AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Algo: AlgoMemo},
		{Algo: AlgoPrecomp, Table: subst.Nested},
		{Algo: AlgoBasic, SCCOrder: true},
	} {
		res, err := Exist(g, g.Start(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Pairs) != fmt.Sprint(ref.Pairs) {
			t.Fatalf("opts %+v disagree on stress graph", opts)
		}
	}
}
