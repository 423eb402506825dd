package rpq

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestPatternMirrorPublic(t *testing.T) {
	p := MustParsePattern("open(f) access(f)* close(f)")
	m := p.Mirror()
	if m.String() != "close(f) access(f)* open(f)" {
		t.Fatalf("Mirror = %q", m.String())
	}
	// A suffix question: from which vertices does an open..close window run
	// to the exit? Ask with the mirrored pattern backward from the exit.
	g, err := FromMiniC(`
func main() {
	int a;
	a = 1;
	open(f);
	access(f);
	close(f);
}
`, MiniCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Exist(MustParsePattern("open(f) access(f)* close(f) _*"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forward from entry: no match (the def/use prefix precedes the open).
	if len(res.Answers) != 0 {
		t.Fatalf("forward from entry matched: %v", res.Answers)
	}
	// Backward with the mirror: matches, starting at the vertex before
	// open(f).
	back, err := g.Exist(MustParsePattern("open(f) access(f)* close(f) _*").Mirror(), &Options{Backward: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Answers) == 0 {
		t.Fatalf("mirrored backward query found nothing")
	}
}

func TestUniversalCompletionPublic(t *testing.T) {
	g := NewGraph()
	g.MustAddEdge("v0", "a()", "v1")
	g.MustAddEdge("v1", "b()", "v2")
	g.MustAddEdge("v2", "c()", "v3")
	g.SetStart("v0")
	p := MustParsePattern("(a() b())* c()?")
	base, err := g.Universal(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Completion{TrapCompletion, ExplicitCompletion} {
		res, err := g.Universal(p, &Options{Completion: c})
		if err != nil {
			t.Fatalf("completion %v: %v", c, err)
		}
		if len(res.Answers) != len(base.Answers) {
			t.Fatalf("completion %v changed results: %v vs %v", c, res.Answers, base.Answers)
		}
	}
	// Explicit completion rejects parametric patterns.
	if _, err := g.Universal(MustParsePattern("def(x)*"), &Options{Completion: ExplicitCompletion}); err == nil {
		t.Fatal("explicit completion accepted a parametric pattern")
	}
}

// TestSameAutomatonForCAndGo reproduces the paper's Section 6 claim that
// one automaton performs uninitialized-use analysis across languages: the
// pattern (!def(x))* use(x) runs unchanged over a MiniC program and its Go
// translation and reports the same variables. gofront qualifies symbols
// (pkg.func.var), so the Go side is compared by short name.
func TestSameAutomatonForCAndGo(t *testing.T) {
	const cSrc = `
func main() {
	int a, b, c, d;
	a = 1;
	if (a < 2) {
		b = a;
	}
	while (a < 3) {
		c = a;
		a = a + 1;
	}
	d = b + c;
}
`
	// As in testdata/goprog/uninit: var x T, assigned on one branch only.
	const goSrc = `package demo

func main() {
	var a, b, c, d int
	a = 1
	if a < 2 {
		b = a
	}
	for a < 3 {
		c = a
		a = a + 1
	}
	d = b + c
	_ = d
}
`
	p := MustParsePattern("(!def(x))* use(x)")
	uninit := func(g *Graph) []string {
		t.Helper()
		res, err := g.Exist(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, a := range res.Answers {
			x := a.Bindings[0].Symbol
			seen[x[strings.LastIndexByte(x, '.')+1:]] = true
		}
		vars := make([]string, 0, len(seen))
		for x := range seen {
			vars = append(vars, x)
		}
		sort.Strings(vars)
		return vars
	}
	cg, err := FromMiniC(cSrc, MiniCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := FromGoSource(goSrc, GoConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cVars, goVars := uninit(cg), uninit(gp.Graph)
	if want := "[b c]"; fmt.Sprint(cVars) != want {
		t.Fatalf("MiniC reports %v, want %s", cVars, want)
	}
	if fmt.Sprint(goVars) != fmt.Sprint(cVars) {
		t.Fatalf("MiniC and Go disagree:\n  MiniC: %v\n  Go:    %v", cVars, goVars)
	}
}

func TestFrontEndErrorsPublic(t *testing.T) {
	if _, err := FromMiniC("func main() {", MiniCConfig{}); err == nil {
		t.Error("broken MiniC accepted")
	}
	if _, err := FromXML(strings.NewReader("<a>")); err == nil {
		t.Error("broken XML accepted")
	}
	if _, err := FromAUT(strings.NewReader("junk"), false); err == nil {
		t.Error("broken AUT accepted")
	}
	if _, err := ReadGraphString("edge oops"); err == nil {
		t.Error("broken graph accepted")
	}
	g := NewGraph()
	g.MustAddEdge("a", "f()", "b")
	g.SetStart("a")
	if _, err := g.Violations("((", false, nil); err == nil {
		t.Error("broken discipline accepted")
	}
}
