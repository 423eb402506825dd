package rpq

import (
	"strings"
	"testing"

	"rpq/internal/automata"
	"rpq/internal/core"
	"rpq/internal/label"
	"rpq/internal/pattern"
)

func TestWitnessPaths(t *testing.T) {
	g, err := ReadGraphString(`
start v1
edge v1 def(a) v2
edge v2 use(a) v3
edge v3 def(a) v4
edge v4 use(b) v5
edge v5 def(b) v6
edge v6 use(c) v7
`)
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePattern("(!def(x))* use(x)")
	for _, algo := range []Algorithm{Basic, Memo, Precompute} {
		res, err := g.Exist(p, &Options{Algorithm: algo, Witnesses: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatal("no answers")
		}
		for _, a := range res.Answers {
			w := a.Witness
			if len(w) == 0 {
				t.Fatalf("%v: answer %s has no witness", algo, a)
			}
			// The witness starts at the start vertex and ends at the
			// answer's vertex, with consecutive steps connected.
			if w[0].From != "v1" {
				t.Errorf("%v: witness starts at %s", algo, w[0].From)
			}
			if w[len(w)-1].To != a.Vertex {
				t.Errorf("%v: witness ends at %s, answer at %s", algo, w[len(w)-1].To, a.Vertex)
			}
			for i := 1; i < len(w); i++ {
				if w[i].From != w[i-1].To {
					t.Errorf("%v: witness disconnected at step %d", algo, i)
				}
			}
			// The last step is the use the query reports.
			if !strings.HasPrefix(w[len(w)-1].Label, "use(") {
				t.Errorf("%v: witness for %s ends with %s", algo, a, w[len(w)-1].Label)
			}
		}
	}
	// Without the option no witnesses are attached.
	res, err := g.Exist(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if len(a.Witness) != 0 {
			t.Fatalf("witness attached without the option")
		}
	}
}

// TestWitnessPathsActuallyMatch re-validates every witness against the
// pattern automaton under the answer's substitution.
func TestWitnessPathsActuallyMatch(t *testing.T) {
	g, err := FromMiniC(`
func main() {
	int a, b;
	a = 1;
	if (a) {
		b = a + c;
	}
	open(f);
	seteuid(1);
	close(f);
}
`, MiniCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ig := g.Internal()
	for _, pat := range []string{"(!def(x))* use(x)", "_* open(f) (!close(f))* seteuid(!0)"} {
		q := core.MustCompile(pattern.MustParse(pat), ig.U)
		res, err := core.Exist(ig, ig.Start(), q, core.Options{Witnesses: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			t.Fatalf("%s: no answers", pat)
		}
		for _, p := range res.Pairs {
			// Extend the minimal substitution over refined domains: the
			// witness must match under at least one full extension.
			word := make([]label.Ground, len(p.Witness))
			for i, w := range p.Witness {
				word[i] = w.Label
			}
			doms := core.ComputeDomains(q, ig, core.DomainsAllSymbols)
			matched := false
			forEach := func(th []int32) bool {
				if acceptsWord(q.NFA, word, th) {
					matched = true
					return false
				}
				return true
			}
			forEachExtension(p.Subst, q.Pars(), doms, forEach)
			if !matched {
				t.Fatalf("%s: witness %s does not match under any extension of %s",
					pat, core.FormatWitness(ig, p.Witness), p.Subst.Format(ig.U, q.PS))
			}
		}
	}
}

func acceptsWord(n *automata.NFA, word []label.Ground, th []int32) bool {
	cur := map[int32]bool{n.Start: true}
	for _, el := range word {
		next := map[int32]bool{}
		for s := range cur {
			for _, tr := range n.Trans[s] {
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
		if n.Final[s] {
			return true
		}
	}
	return false
}

func forEachExtension(base []int32, pars int, doms [][]int32, fn func([]int32) bool) {
	buf := make([]int32, len(base))
	copy(buf, base)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == pars {
			return fn(buf)
		}
		if base[i] >= 0 {
			return rec(i + 1)
		}
		for _, s := range doms[i] {
			buf[i] = s
			if !rec(i + 1) {
				return false
			}
		}
		buf[i] = -1
		return true
	}
	rec(0)
}
