package pattern_test

// External test package so the language-preservation check can use the
// automata construction without an import cycle.

import (
	"math/rand"
	"testing"

	"rpq/internal/automata"
	"rpq/internal/label"
	"rpq/internal/pattern"
)

func TestSimplifyRules(t *testing.T) {
	cases := [][2]string{
		{"(a()*)*", "a()*"},
		{"(a()+)+", "a()+"},
		{"(a()?)?", "a()?"},
		{"(a()*)?", "a()*"},
		{"(a()?)*", "a()*"},
		{"(a()+)?", "a()*"},
		{"(a()?)+", "a()*"},
		{"(a()+)*", "a()*"},
		{"(a()*)+", "a()*"},
		{"eps a() eps", "a()"},
		{"a() (b() c())", "a() b() c()"},
		{"(a()|b())|a()", "a() | b()"},
		{"eps*", "eps"},
		{"eps?", "eps"},
		{"eps+", "eps"},
		{"(eps eps)", "eps"},
		{"a()|a()", "a()"},
	}
	for _, c := range cases {
		got := pattern.Simplify(pattern.MustParse(c[0]))
		want := pattern.MustParse(c[1])
		if !pattern.Equal(got, want) {
			t.Errorf("Simplify(%s) = %s, want %s", c[0], pattern.String(got), c[1])
		}
	}
}

// accepts runs an NFA over a word under a full substitution.
func accepts(n *automata.NFA, word []label.Ground, th []int32) bool {
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

func genSimpExpr(rng *rand.Rand, depth int) pattern.Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return pattern.Eps()
		case 1:
			return pattern.Lit("a(x)")
		case 2:
			return pattern.Lit("b()")
		default:
			return pattern.Any()
		}
	}
	switch rng.Intn(6) {
	case 0:
		return pattern.Seq(genSimpExpr(rng, depth-1), genSimpExpr(rng, depth-1))
	case 1:
		return pattern.Or(genSimpExpr(rng, depth-1), genSimpExpr(rng, depth-1))
	case 2:
		return pattern.Rep(genSimpExpr(rng, depth-1))
	case 3:
		return pattern.Rep1(genSimpExpr(rng, depth-1))
	case 4:
		return pattern.Maybe(genSimpExpr(rng, depth-1))
	default:
		return genSimpExpr(rng, depth-1)
	}
}

// TestSimplifyPreservesLanguage compares acceptance of the original and the
// simplified pattern on random words and substitutions, and checks that
// simplification never grows the pattern.
func TestSimplifyPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 300; trial++ {
		e := genSimpExpr(rng, 4)
		s := pattern.Simplify(e)
		if pattern.Size(s) > pattern.Size(e) {
			t.Fatalf("Simplify grew %s (%d) to %s (%d)",
				pattern.String(e), pattern.Size(e), pattern.String(s), pattern.Size(s))
		}
		// Idempotence.
		if !pattern.Equal(pattern.Simplify(s), s) {
			t.Fatalf("Simplify not idempotent on %s -> %s", pattern.String(e), pattern.String(s))
		}
		u := label.NewUniverse()
		ps := &label.ParamSpace{}
		n1 := automata.MustFromPattern(e, u, ps)
		n2 := automata.MustFromPattern(s, u, ps)
		var letters []label.Ground
		for _, l := range []string{"a(k)", "a(m)", "b()", "c()"} {
			c, err := label.AppendGround(nil, label.MustParse(l, label.GroundMode), u)
			if err != nil {
				t.Fatal(err)
			}
			letters = append(letters, c)
		}
		syms := u.AllSymbols()
		for w := 0; w < 30; w++ {
			word := make([]label.Ground, rng.Intn(5))
			for i := range word {
				word[i] = letters[rng.Intn(len(letters))]
			}
			th := make([]int32, ps.Len())
			for i := range th {
				th[i] = syms[rng.Intn(len(syms))]
			}
			if accepts(n1, word, th) != accepts(n2, word, th) {
				t.Fatalf("language changed: %s vs %s on %v", pattern.String(e), pattern.String(s), word)
			}
		}
	}
}
