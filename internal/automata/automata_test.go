package automata

import (
	"math/rand"
	"testing"

	"rpq/internal/label"
	"rpq/internal/pattern"
)

type env struct {
	u  *label.Universe
	ps *label.ParamSpace
}

func newEnv() *env { return &env{u: label.NewUniverse(), ps: &label.ParamSpace{}} }

func (e *env) nfa(pat string) *NFA {
	return MustFromPattern(pattern.MustParse(pat), e.u, e.ps)
}

func (e *env) el(s string) label.Ground {
	r, err := label.AppendGround(nil, label.MustParse(s, label.GroundMode), e.u)
	if err != nil {
		panic(err)
	}
	return r
}

// acceptsNFA simulates the NFA on a word of ground labels under subst.
func acceptsNFA(n *NFA, word []label.Ground, subst []int32) bool {
	cur := map[int32]bool{n.Start: true}
	for _, el := range word {
		next := map[int32]bool{}
		for s := range cur {
			for _, tr := range n.Trans[s] {
				if label.MatchGround(tr.Label, el, subst) {
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

func TestNFABasicShapes(t *testing.T) {
	e := newEnv()
	n := e.nfa("(!def(x))* use(x)")
	if n.AcceptsEmpty() {
		t.Errorf("(!def(x))* use(x) should not accept the empty path")
	}
	if got := len(n.FinalStates()); got < 1 {
		t.Errorf("no final states")
	}
	if e.nfa("_*").AcceptsEmpty() != true {
		t.Errorf("_* should accept the empty path")
	}
	if e.nfa("eps").AcceptsEmpty() != true {
		t.Errorf("eps should accept the empty path")
	}
	if e.nfa("def(x)?").AcceptsEmpty() != true {
		t.Errorf("def(x)? should accept the empty path")
	}
	if e.nfa("def(x)+").AcceptsEmpty() {
		t.Errorf("def(x)+ should not accept the empty path")
	}
	// No ε transitions remain and every state's transitions carry labels.
	for s := 0; s < n.NumStates; s++ {
		for _, tr := range n.Trans[s] {
			if tr.Label == nil {
				t.Fatalf("ε transition survived elimination")
			}
		}
	}
}

func TestNFAWordAcceptance(t *testing.T) {
	e := newEnv()
	n := e.nfa("(!def(x))* use(x)")
	x, _ := e.ps.Lookup("x")
	sub := make([]int32, e.ps.Len())
	def := e.el("def(a)")
	useA := e.el("use(a)")
	useB := e.el("use(b)")
	sub[x] = e.u.Syms.Intern("b")
	// Path def(a) use(a) def(a) use(b) matches under {x↦b} (Figure 1).
	if !acceptsNFA(n, []label.Ground{def, useA, def, useB}, sub) {
		t.Errorf("paper's Figure 1 path should match under {x↦b}")
	}
	sub[x] = e.u.Syms.Intern("a")
	if acceptsNFA(n, []label.Ground{def, useA}, sub) {
		t.Errorf("def(a) use(a) should not match under {x↦a}")
	}
	if !acceptsNFA(n, []label.Ground{useA}, sub) {
		t.Errorf("use(a) should match under {x↦a}")
	}
}

func TestNFAPositiveLabelAlternationSplit(t *testing.T) {
	e := newEnv()
	// Compile a pattern with a positive KOr label via the API.
	or := label.Or(label.App("a"), label.App("b"))
	n := MustFromPattern(pattern.L(or), e.u, e.ps)
	for s := 0; s < n.NumStates; s++ {
		for _, tr := range n.Trans[s] {
			if tr.Label.Kind == label.KOr {
				t.Fatalf("positive KOr label reached the automaton")
			}
		}
	}
	if !acceptsNFA(n, []label.Ground{e.el("a()")}, nil) ||
		!acceptsNFA(n, []label.Ground{e.el("b()")}, nil) {
		t.Errorf("split alternation lost a branch")
	}
	if acceptsNFA(n, []label.Ground{e.el("c()")}, nil) {
		t.Errorf("split alternation accepts too much")
	}
}

func TestDeterminize(t *testing.T) {
	e := newEnv()
	n := e.nfa("_* state(s) act(_)")
	d := Determinize(n)
	if !IsLabelDeterministic(d) {
		t.Fatalf("Determinize output not label-deterministic:\n%s", d)
	}
	// Language preserved on random ground words.
	letters := []label.Ground{e.el("state(v1)"), e.el("state(v2)"), e.el("act(p)"), e.el("other()")}
	s, _ := e.ps.Lookup("s")
	rng := rand.New(rand.NewSource(11))
	sub := make([]int32, e.ps.Len())
	for trial := 0; trial < 2000; trial++ {
		var word []label.Ground
		for i := rng.Intn(6); i > 0; i-- {
			word = append(word, letters[rng.Intn(len(letters))])
		}
		sub[s] = int32(rng.Intn(e.u.NumSymbols()))
		if acceptsNFA(n, word, sub) != acceptsNFA(d, word, sub) {
			t.Fatalf("NFA and DFA disagree on %v under %v", word, sub)
		}
	}
}

func TestDeterminizeIncomplete(t *testing.T) {
	e := newEnv()
	// The DFA must stay incomplete: a() b() has no transition on c().
	d := Determinize(e.nfa("a() b()"))
	total := 0
	for s := 0; s < d.NumStates; s++ {
		total += len(d.Trans[s])
	}
	if total != 2 {
		t.Errorf("incomplete DFA has %d transitions, want 2 (no trap state)", total)
	}
}

func randWordIdx(rng *rand.Rand, n, maxLen int) []int {
	w := make([]int, rng.Intn(maxLen))
	for i := range w {
		w[i] = rng.Intn(n)
	}
	return w
}

func TestGroundDFAEquivalence(t *testing.T) {
	e := newEnv()
	// Ground patterns (after instantiation) over a small alphabet.
	pats := []string{
		"_* state('v1') act(_)",
		"(!def('a'))* use('a')",
		"(open('f') (access('f'))* close('f'))*",
		"_* a() (b()|c())* d()",
		"(eps | _* close('f')) (!open('f'))* access('f')",
	}
	alphabet := []label.Ground{
		e.el("state(v1)"), e.el("act(p)"), e.el("def(a)"), e.el("use(a)"),
		e.el("open(f)"), e.el("access(f)"), e.el("close(f)"),
		e.el("a()"), e.el("b()"), e.el("c()"), e.el("d()"),
	}
	rng := rand.New(rand.NewSource(5))
	for _, ps := range pats {
		n := e.nfa(ps)
		d := DeterminizeGround(n, alphabet, nil)
		m := d.Minimize()
		if m.NumStates > d.NumStates {
			t.Errorf("%s: minimized has more states (%d > %d)", ps, m.NumStates, d.NumStates)
		}
		for trial := 0; trial < 1500; trial++ {
			idx := randWordIdx(rng, len(alphabet), 7)
			word := make([]label.Ground, len(idx))
			for i, a := range idx {
				word[i] = alphabet[a]
			}
			want := acceptsNFA(n, word, nil)
			run := func(g *GroundDFA) bool {
				cur := g.Start
				for _, a := range idx {
					cur = g.Step(cur, int32(a))
					if cur < 0 {
						return false
					}
				}
				return g.Final[cur]
			}
			if got := run(d); got != want {
				t.Fatalf("%s: GroundDFA disagrees with NFA on %v (got %v want %v)", ps, idx, got, want)
			}
			if got := run(m); got != want {
				t.Fatalf("%s: minimized GroundDFA disagrees on %v (got %v want %v)", ps, idx, got, want)
			}
		}
	}
}

func TestGroundDFAWithSubstitution(t *testing.T) {
	e := newEnv()
	n := e.nfa("(!def(x))* use(x)")
	alphabet := []label.Ground{e.el("def(a)"), e.el("def(b)"), e.el("use(a)"), e.el("use(b)")}
	x, _ := e.ps.Lookup("x")
	sub := make([]int32, e.ps.Len())
	sub[x], _ = e.u.Syms.Lookup("a")
	d := DeterminizeGround(n, alphabet, sub)
	run := func(idx ...int) bool {
		cur := d.Start
		for _, a := range idx {
			cur = d.Step(cur, int32(a))
			if cur < 0 {
				return false
			}
		}
		return d.Final[cur]
	}
	if !run(1, 2) { // def(b) use(a) matches with x↦a
		t.Errorf("def(b) use(a) should be accepted under {x↦a}")
	}
	if run(0, 2) { // def(a) use(a) does not match
		t.Errorf("def(a) use(a) accepted under {x↦a}")
	}
	if run(1, 3) { // def(b) use(b) needs x↦b
		t.Errorf("def(b) use(b) accepted under {x↦a}")
	}
}

func TestMinimizeCollapsesNothingAutomaton(t *testing.T) {
	e := newEnv()
	n := e.nfa("a()")
	alphabet := []label.Ground{e.el("b()")} // a() is not in the alphabet
	d := DeterminizeGround(n, alphabet, nil)
	m := d.Minimize()
	if m.NumStates != 1 || m.Final[0] {
		t.Errorf("automaton accepting nothing should minimize to one non-final state, got %d states", m.NumStates)
	}
}

func TestNFAStats(t *testing.T) {
	e := newEnv()
	n := e.nfa("(!def(x))* use(x)")
	if n.NumTrans() == 0 || n.MaxLabelSize() < 2 || len(n.Labels) != 2 {
		t.Errorf("stats: trans=%d labelsize=%d labels=%d", n.NumTrans(), n.MaxLabelSize(), len(n.Labels))
	}
}
