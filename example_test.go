package rpq_test

import (
	"fmt"
	"strings"

	"rpq"
)

// The paper's running example: find uses of uninitialized variables.
func ExampleGraph_Exist() {
	g := rpq.NewGraph()
	g.MustAddEdge("v1", "def(a)", "v2")
	g.MustAddEdge("v2", "use(a)", "v3")
	g.MustAddEdge("v3", "use(b)", "v4")
	g.SetStart("v1")

	p := rpq.MustParsePattern("(!def(x))* use(x)")
	res, err := g.Exist(p, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println(a)
	}
	// Output:
	// v4 {x↦b}
}

// Universal queries quantify over all paths: available expressions survive
// only when computed on every path and not killed.
func ExampleGraph_Universal() {
	g := rpq.NewGraph()
	g.MustAddEdge("s", "exp(a,plus,b)", "p1")
	g.MustAddEdge("s", "exp(a,plus,b)", "p2")
	g.MustAddEdge("p1", "def(c)", "m")
	g.MustAddEdge("p2", "def(d)", "m")
	g.SetStart("s")

	p := rpq.MustParsePattern("_* exp(x,op,y) (!(def(x)|def(y)))*")
	res, err := g.Universal(p, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		if a.Vertex == "m" {
			fmt.Println(a)
		}
	}
	// Output:
	// m {x↦a, op↦plus, y↦b}
}

// Backward queries run on the reversed graph; the catalog handles the
// reversal and the post-exit start vertex automatically.
func ExampleGraph_RunAnalysis() {
	g, err := rpq.FromMiniC(`
func main() {
	int a, b;
	a = b;
	b = a;
}
`, rpq.MiniCConfig{UseSites: true, EntryLoop: true})
	if err != nil {
		panic(err)
	}
	analysis, err := rpq.AnalysisByName("uninit-uses-bwd")
	if err != nil {
		panic(err)
	}
	res, err := g.RunAnalysis(analysis, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		for _, bd := range a.Bindings {
			if bd.Param == "x" {
				fmt.Println("uninitialized:", bd.Symbol)
			}
		}
	}
	// Output:
	// uninitialized: b
}

// A single universal discipline specification generates one merged
// existential query catching every kind of violation (Section 5.4).
func ExampleGraph_Violations() {
	g, err := rpq.FromMiniC(`
func main() {
	open(f);
	close(f);
	access(f);
}
`, rpq.MiniCConfig{})
	if err != nil {
		panic(err)
	}
	res, err := g.Violations("(open(f) (access(f))* close(f))*", true, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println("violation for", a.Bindings[0].Symbol)
	}
	// Output:
	// violation for f
}

// LTS model checking via the Section 2.3 transformation.
func ExampleFromAUT() {
	aut := `des (0, 3, 3)
(0, "send", 1)
(1, "i", 1)
(1, "recv", 2)
`
	g, err := rpq.FromAUT(strings.NewReader(aut), false)
	if err != nil {
		panic(err)
	}
	// States with an outgoing action; reachable states missing from the
	// result (here s2) are deadlocks.
	p := rpq.MustParsePattern("_* state(s) act(_)")
	res, err := g.Exist(p, nil)
	if err != nil {
		panic(err)
	}
	alive := map[string]bool{}
	for _, a := range res.Answers {
		alive[a.Bindings[0].Symbol] = true
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		if !alive[name] {
			fmt.Println("deadlock at", name)
		}
	}
	// Output:
	// deadlock at s2
}

// Patterns generalize XPath over XML documents (Section 5.4).
func ExampleFromXML() {
	doc := `<a><b lang="en"><b><c/></b></b></a>`
	g, err := rpq.FromXML(strings.NewReader(doc))
	if err != nil {
		panic(err)
	}
	// A tag nested directly inside itself — beyond XPath 1.0.
	res, err := g.Exist(rpq.MustParsePattern("_* child(t) child(t)"), nil)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Answers {
		fmt.Println(a)
	}
	// Output:
	// b[2] {t↦b}
}

// Algorithm variants are selected through Options; all agree on the result.
func ExampleOptions() {
	g := rpq.NewGraph()
	g.MustAddEdge("v1", "acq(m)", "v2")
	g.MustAddEdge("v2", "acq(n)", "v3")
	g.SetStart("v1")
	p := rpq.MustParsePattern("_* acq(l1) (!rel(l1))* acq(l2) _*")
	for _, algo := range []rpq.Algorithm{rpq.Basic, rpq.Memo, rpq.Precompute} {
		res, err := g.Exist(p, &rpq.Options{Algorithm: algo, Table: rpq.NestedArrays})
		if err != nil {
			panic(err)
		}
		fmt.Println(algo, res.Answers[0])
	}
	// Output:
	// basic v3 {l1↦m, l2↦n}
	// memo v3 {l1↦m, l2↦n}
	// precomp v3 {l1↦m, l2↦n}
}
