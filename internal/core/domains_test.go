package core

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"rpq/internal/gofront"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// scanDomains is the reference for ComputeDomains: it rebuilds the
// (constructor, argument index) → symbols table from every graph label on
// each call, as ComputeDomains did before the graph kept a label index.
func scanDomains(q *Query, g *graph.Graph, mode DomainMode) subst.Domains {
	pars := q.Pars()
	if mode == DomainsAllSymbols || pars == 0 {
		return subst.Uniform(pars, g.U.AllSymbols())
	}
	type pos struct {
		ctor int32
		arg  int
	}
	positive := make([]map[pos]bool, pars)
	anywhere := make([]map[pos]bool, pars)
	for i := range positive {
		positive[i] = map[pos]bool{}
		anywhere[i] = map[pos]bool{}
	}
	for _, tl := range q.NFA.Labels {
		tl.PositivePositions(func(p, ctor int32, arg int) {
			positive[p][pos{ctor, arg}] = true
		})
		tl.AllPositions(func(p, ctor int32, arg int) {
			anywhere[p][pos{ctor, arg}] = true
		})
	}
	atPos := map[pos]map[int32]bool{}
	var scan func(c *label.CTerm)
	scan = func(c *label.CTerm) {
		if c.Kind != label.KApp {
			return
		}
		for i, a := range c.Args {
			switch a.Kind {
			case label.KSym:
				key := pos{c.Ctor, i}
				if atPos[key] == nil {
					atPos[key] = map[int32]bool{}
				}
				atPos[key][a.Sym] = true
			case label.KApp:
				scan(a)
			}
		}
	}
	for _, el := range g.Labels() {
		scan(el.Pattern())
	}
	doms := make(subst.Domains, pars)
	for p := 0; p < pars; p++ {
		use := positive[p]
		if len(use) == 0 {
			use = anywhere[p]
		}
		if len(use) == 0 {
			doms[p] = g.U.AllSymbols()
			continue
		}
		set := map[int32]bool{}
		for k := range use {
			for s := range atPos[k] {
				set[s] = true
			}
		}
		dom := make([]int32, 0, len(set))
		for s := range set {
			dom = append(dom, s)
		}
		sort.Slice(dom, func(i, j int) bool { return dom[i] < dom[j] })
		doms[p] = dom
	}
	return doms
}

// checkDomains compares ComputeDomains with the reference scan in both
// domain modes.
func checkDomains(t *testing.T, name string, g *graph.Graph, pat string) {
	t.Helper()
	q := MustCompile(pattern.MustParse(pat), g.U)
	for _, mode := range []DomainMode{DomainsRefined, DomainsAllSymbols} {
		got, want := ComputeDomains(q, g, mode), scanDomains(q, g, mode)
		if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Errorf("%s %q mode %d: domains %v, scan %v", name, pat, mode, got, want)
		}
	}
}

// benchmodPatterns are the rpqcheck catalog's patterns (internal/queries
// imports core, so they are listed here) plus shapes that exercise the
// anywhere fallback and nested positions.
var benchmodPatterns = []string{
	"_* decl(x) (!def(x))* use(x)",
	"_* close(x) (!def(x))* (close(x) | send(x) | mcall(x, _))",
	"_* lock(m) (!unlock(m))* lock(m)",
	"(!lock(m))* unlock(m)",
	"_* defer(f, s) _* defer(f, s)",
	"(!def(x))*",
	"_* mcall(x, y) use(z)",
}

func TestComputeDomainsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		g := randomDAG(rng)
		for _, pat := range oraclePatterns {
			checkDomains(t, "random", g, pat)
		}
	}
	for _, w := range corpus(t) {
		checkDomains(t, w.name, w.g, w.pat)
	}
	prog, err := gofront.Load([]string{"../../testdata/goprog/benchmod/..."}, gofront.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	linked, err := prog.Linked()
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range benchmodPatterns {
		checkDomains(t, "benchmod", prog.Graph, pat)
		checkDomains(t, "benchmod-linked", linked.Graph, pat)
	}
}

// TestLabelIndexCopies checks the index against the scan across the
// graph's life: labels added after a first query, Reverse with and
// without an edgeless label, and Clone.
func TestLabelIndexCopies(t *testing.T) {
	const pat = "_* f(x, g(y)) (!h(x))* h(y)"
	build := func() *graph.Graph {
		return graph.MustReadString(`
start v0
edge v0 f(a,g(b)) v1
edge v1 h(a) v2
edge v2 f(c,g(d)) v0
`)
	}

	t.Run("grows", func(t *testing.T) {
		g := build()
		checkDomains(t, "built", g, pat)
		before := g.LabelIndex()
		g.MustAddEdgeStr("v2", "h(e)", "v3")
		g.MustAddEdgeStr("v3", "f(e,g(k(z)))", "v0")
		if g.LabelIndex() == before {
			t.Error("index not rebuilt after the graph gained labels")
		}
		checkDomains(t, "grown", g, pat)
	})

	t.Run("reverse-shares", func(t *testing.T) {
		g := build()
		r := g.Reverse()
		if r.LabelIndex() != g.LabelIndex() {
			t.Error("reverse of a graph with every label on an edge built its own index")
		}
		checkDomains(t, "reverse", r, pat)
	})

	t.Run("reverse-edgeless-label", func(t *testing.T) {
		g := build()
		c, err := label.AppendGround(nil, label.MustParse("h(lost)", label.GroundMode), g.U)
		if err != nil {
			t.Fatal(err)
		}
		g.InternLabel(c)
		checkDomains(t, "original", g, pat)
		r := g.Reverse()
		if r.NumLabels() == g.NumLabels() {
			t.Fatal("edgeless label survived Reverse")
		}
		if r.LabelIndex() == g.LabelIndex() {
			t.Error("reverse without the edgeless label shares the original's index")
		}
		checkDomains(t, "reverse", r, pat)
	})

	t.Run("clone", func(t *testing.T) {
		g := build()
		checkDomains(t, "original", g, pat)
		c := g.Clone()
		c.MustAddEdgeStr("v1", "h(new)", "v2")
		c.MustAddEdgeStr("v2", "f(new,g(n2))", "v2")
		checkDomains(t, "clone", c, pat)
		checkDomains(t, "original after clone", g, pat)
	})
}

// TestLabelIndexConcurrentFirstUse builds a fresh graph's index from 8
// goroutines at once; run under -race.
func TestLabelIndexConcurrentFirstUse(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(45)))
	q := MustCompile(pattern.MustParse("_* exp(x,op,y) (!(def(x)|def(y)))*"), g.U)
	want := scanDomains(q, g, DomainsRefined)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := ComputeDomains(q, g, DomainsRefined); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Errorf("domains %v, scan %v", got, want)
			}
			EstimateQuery(q, g, DomainsRefined)
		}()
	}
	wg.Wait()
}
