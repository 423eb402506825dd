package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// The oracle answers queries by brute force: it enumerates every path of a
// DAG explicitly and every full substitution over the domains explicitly,
// and checks the matching relation per path. It shares no code with the
// solvers beyond the label matcher's ground case.

// allPaths returns every path from v0 in an acyclic graph as a slice of
// edges (the empty path included), paired with its end vertex.
type oraclePath struct {
	end  int32
	word []label.Ground
}

func allPaths(g *graph.Graph, v0 int32) []oraclePath {
	var out []oraclePath
	var word []label.Ground
	var rec func(v int32)
	rec = func(v int32) {
		w := make([]label.Ground, len(word))
		copy(w, word)
		out = append(out, oraclePath{end: v, word: w})
		for _, e := range g.Out(v) {
			word = append(word, g.Label(e.LabelID))
			rec(e.To)
			word = word[:len(word)-1]
		}
	}
	rec(v0)
	return out
}

// wordMatches reports whether the word matches some sentence of the pattern
// automaton under the full substitution th, by direct NFA simulation.
func wordMatches(q *Query, word []label.Ground, th subst.Subst) bool {
	cur := map[int32]bool{q.NFA.Start: true}
	for _, el := range word {
		next := map[int32]bool{}
		for s := range cur {
			for _, tr := range q.NFA.Trans[s] {
				if label.MatchGround(tr.Label, el, th) {
					next[tr.To] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return false
		}
	}
	for s := range cur {
		if q.NFA.Final[s] {
			return true
		}
	}
	return false
}

// oracleSets computes the existential and universal answer sets as
// (vertex, full-substitution) string sets.
func oracleSets(g *graph.Graph, v0 int32, q *Query, doms subst.Domains) (exist, univ map[string]bool) {
	paths := allPaths(g, v0)
	exist = map[string]bool{}
	univ = map[string]bool{}
	subst.ForEachFull(q.Pars(), doms, func(th subst.Subst) bool {
		matched := map[int32]bool{}
		broken := map[int32]bool{}
		seenVertex := map[int32]bool{}
		for _, p := range paths {
			seenVertex[p.end] = true
			if wordMatches(q, p.word, th) {
				matched[p.end] = true
			} else {
				broken[p.end] = true
			}
		}
		for v := range matched {
			exist[fmt.Sprintf("%d%s", v, th.String())] = true
		}
		for v := range seenVertex {
			if matched[v] && !broken[v] {
				univ[fmt.Sprintf("%d%s", v, th.String())] = true
			}
		}
		return true
	})
	return exist, univ
}

// randomDAG builds a small random DAG with labels from a def/use-flavoured
// alphabet. Edges only go from lower- to higher-numbered vertices, so path
// enumeration terminates.
func randomDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	n := 3 + rng.Intn(5)
	for i := 0; i < n; i++ {
		g.Vertex(fmt.Sprintf("v%d", i))
	}
	g.SetStart(0)
	labels := []string{"def(a)", "def(b)", "use(a)", "use(b)", "f()", "exp(a,plus,b)"}
	m := n + rng.Intn(2*n)
	for i := 0; i < m; i++ {
		from := rng.Intn(n - 1)
		to := from + 1 + rng.Intn(n-from-1)
		lbl := label.MustParse(labels[rng.Intn(len(labels))], label.GroundMode)
		if err := g.AddEdge(int32(from), lbl, int32(to)); err != nil {
			panic(err)
		}
	}
	return g
}

var oraclePatterns = []string{
	"(!def(x))* use(x)",
	"(!(def(x)|use(x)))* use(x)",
	"_* use(x)",
	"def(x)* use(x)",
	"_* exp(x,op,y) (!(def(x)|def(y)))*",
	"def(x)*",
	"(def(x) | use(x))+",
	"_* def(x) _* use(y)",
	"use(x)? def(y)*",
	"_*",
	"f()* use(x)?",
}

func TestOracleExistential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng)
		pat := oraclePatterns[rng.Intn(len(oraclePatterns))]
		q := MustCompile(pattern.MustParse(pat), g.U)
		dm := DomainMode(rng.Intn(2))
		doms := ComputeDomains(q, g, dm)
		if doms.Count() > 200 {
			continue
		}
		oe, _ := oracleSets(g, g.Start(), q, doms)
		for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum} {
			res, err := Exist(g, g.Start(), q, Options{Algo: algo, Domains: dm})
			if err != nil {
				t.Fatalf("trial %d %q %v: %v", trial, pat, algo, err)
			}
			got := expand(res, doms, q.Pars())
			if len(got) != len(oe) {
				t.Fatalf("trial %d %q %v: oracle %d answers, solver %d\ngraph:\n%s\noracle: %v\nsolver: %v",
					trial, pat, algo, len(oe), len(got), g.String(), oe, got)
			}
			for k := range oe {
				if !got[k] {
					t.Fatalf("trial %d %q %v: solver missing %s\ngraph:\n%s", trial, pat, algo, k, g.String())
				}
			}
		}
	}
}

func TestOracleUniversal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng)
		pat := oraclePatterns[rng.Intn(len(oraclePatterns))]
		q := MustCompile(pattern.MustParse(pat), g.U)
		dm := DomainMode(rng.Intn(2))
		doms := ComputeDomains(q, g, dm)
		if doms.Count() > 120 {
			continue
		}
		_, ou := oracleSets(g, g.Start(), q, doms)
		for _, algo := range []Algo{AlgoEnum, AlgoHybrid} {
			res, err := Univ(g, g.Start(), q, Options{Algo: algo, Domains: dm})
			if err != nil {
				t.Fatalf("trial %d %q %v: %v", trial, pat, algo, err)
			}
			got := map[string]bool{}
			for _, p := range res.Pairs {
				got[fmt.Sprintf("%d%s", p.Vertex, p.Subst.String())] = true
			}
			if len(got) != len(ou) {
				t.Fatalf("trial %d %q %v: oracle %d answers, solver %d\ngraph:\n%s\noracle: %v\nsolver: %v",
					trial, pat, algo, len(ou), len(got), g.String(), ou, got)
			}
			for k := range ou {
				if !got[k] {
					t.Fatalf("trial %d %q %v: solver missing %s", trial, pat, algo, k)
				}
			}
		}
		// The direct algorithm, when determinism holds, must agree after
		// expansion.
		res, err := Univ(g, g.Start(), q, Options{Domains: dm})
		if err != nil {
			continue // nondeterministic pattern; hybrid covered it above
		}
		got := expand(res, doms, q.Pars())
		if len(got) != len(ou) {
			t.Fatalf("trial %d %q direct: oracle %d answers, solver %d\ngraph:\n%s\noracle %v\ngot %v",
				trial, pat, len(ou), len(got), g.String(), ou, got)
		}
		for k := range ou {
			if !got[k] {
				t.Fatalf("trial %d %q direct: solver missing %s", trial, pat, k)
			}
		}
	}
}

func TestOracleCyclicCrossVariant(t *testing.T) {
	// On cyclic graphs the path oracle does not terminate, but all solver
	// variants must still agree with each other.
	rng := rand.New(rand.NewSource(44))
	labels := []string{"def(a)", "def(b)", "use(a)", "use(b)", "f()"}
	for trial := 0; trial < 40; trial++ {
		g := graph.New()
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			g.Vertex(fmt.Sprintf("v%d", i))
		}
		g.SetStart(0)
		m := n + rng.Intn(3*n)
		for i := 0; i < m; i++ {
			lbl := label.MustParse(labels[rng.Intn(len(labels))], label.GroundMode)
			_ = g.AddEdge(int32(rng.Intn(n)), lbl, int32(rng.Intn(n)))
		}
		pat := oraclePatterns[rng.Intn(len(oraclePatterns))]
		q := MustCompile(pattern.MustParse(pat), g.U)
		doms := ComputeDomains(q, g, DomainsRefined)
		if doms.Count() > 200 {
			continue
		}
		ref, err := Exist(g, g.Start(), q, Options{Algo: AlgoBasic})
		if err != nil {
			t.Fatal(err)
		}
		refSet := expand(ref, doms, q.Pars())
		for _, algo := range []Algo{AlgoMemo, AlgoPrecomp, AlgoEnum} {
			res, err := Exist(g, g.Start(), q, Options{Algo: algo})
			if err != nil {
				t.Fatal(err)
			}
			got := expand(res, doms, q.Pars())
			if len(got) != len(refSet) {
				t.Fatalf("trial %d %q %v: %d vs basic %d\ngraph:\n%s",
					trial, pat, algo, len(got), len(refSet), g.String())
			}
			for k := range refSet {
				if !got[k] {
					t.Fatalf("trial %d %q %v: missing %s", trial, pat, algo, k)
				}
			}
		}
		// Universal: enum and hybrid agree on cyclic graphs too.
		en, err := Univ(g, g.Start(), q, Options{Algo: AlgoEnum})
		if err != nil {
			t.Fatal(err)
		}
		hy, err := Univ(g, g.Start(), q, Options{Algo: AlgoHybrid})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(en.Pairs) != fmt.Sprint(hy.Pairs) {
			t.Fatalf("trial %d %q: universal enum/hybrid disagree\ngraph:\n%s\nenum %v\nhybrid %v",
				trial, pat, g.String(), en.Pairs, hy.Pairs)
		}
	}
}
