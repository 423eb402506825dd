package rpq

import (
	"strings"
	"testing"
)

func TestEstimateQueryPublic(t *testing.T) {
	g, err := ReadGraphString(`
start v1
edge v1 def(a) v2
edge v2 use(a) v3
edge v2 use(b) v3
`)
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePattern("(!def(x))* use(x)")
	est, err := g.EstimateQuery(p, RefinedDomains)
	if err != nil {
		t.Fatal(err)
	}
	if est.Verts != 3 || est.GraphEdges != 3 || est.Pars != 1 {
		t.Fatalf("estimate = %+v", est)
	}
	if est.SubstsBound != 2 { // domain of x: {a, b}
		t.Fatalf("substs bound = %v, want 2", est.SubstsBound)
	}
	all, err := g.EstimateQuery(p, AllSymbols)
	if err != nil {
		t.Fatal(err)
	}
	if all.SubstsBound < est.SubstsBound {
		t.Fatalf("all-symbols bound %v below refined %v", all.SubstsBound, est.SubstsBound)
	}
	if !strings.Contains(est.String(), "time bounds") {
		t.Fatalf("String() = %q", est.String())
	}
}

// TestLintQueryNegationFirst: on a graph, as cmd/rpq -estimate reports it,
// the forward formulation draws the negation-before-binding finding and
// the formulation that binds x first draws none.
func TestLintQueryNegationFirst(t *testing.T) {
	g := NewGraph()
	g.MustAddEdge("a", "def(v)", "b")
	g.SetStart("a")
	negFirst := func(src string) int {
		n := 0
		for _, d := range LintQuery(g, MustParsePattern(src), false, nil) {
			if d.Code == "RPQ006" || d.Code == "RPQ004" {
				n++
			}
		}
		return n
	}
	if n := negFirst("(!def(x))* use(x)"); n != 1 {
		t.Fatalf("forward formulation: %d negation-first findings, want 1", n)
	}
	if n := negFirst("use(x) (!def(x))*"); n != 0 {
		t.Fatalf("well-formed query: %d negation-first findings, want 0", n)
	}
}
