package automata

import (
	"math/rand"
	"testing"

	"rpq/internal/label"
	"rpq/internal/pattern"
)

// matchAST is an independent reference semantics for patterns: a direct
// backtracking interpreter over the AST, sharing no code with the Thompson
// construction it checks. matchAST(e, word, θ) reports whether word matches
// e under the full substitution θ.
func matchAST(e pattern.Expr, word []label.Ground, th []int32, compile func(*label.Term) *label.CTerm) bool {
	// matches(e, i) = set of indices j such that word[i:j] matches e.
	var matches func(e pattern.Expr, i int) map[int]bool
	matches = func(e pattern.Expr, i int) map[int]bool {
		out := map[int]bool{}
		switch x := e.(type) {
		case pattern.Epsilon:
			out[i] = true
		case *pattern.Lbl:
			if i < len(word) && label.MatchGround(compile(x.Term), word[i], th) {
				out[i+1] = true
			}
		case *pattern.Concat:
			cur := map[int]bool{i: true}
			for _, it := range x.Items {
				next := map[int]bool{}
				for j := range cur {
					for k := range matches(it, j) {
						next[k] = true
					}
				}
				cur = next
			}
			out = cur
		case *pattern.Alt:
			for _, it := range x.Items {
				for j := range matches(it, i) {
					out[j] = true
				}
			}
		case *pattern.Star:
			// Fixed point of ε | sub · self.
			out[i] = true
			frontier := map[int]bool{i: true}
			for len(frontier) > 0 {
				next := map[int]bool{}
				for j := range frontier {
					for k := range matches(x.Sub, j) {
						if !out[k] {
							out[k] = true
							next[k] = true
						}
					}
				}
				frontier = next
			}
		case *pattern.Plus:
			for j := range matches(x.Sub, i) {
				for k := range matches(&pattern.Star{Sub: x.Sub}, j) {
					out[k] = true
				}
			}
		case *pattern.Opt:
			out[i] = true
			for j := range matches(x.Sub, i) {
				out[j] = true
			}
		}
		return out
	}
	return matches(e, 0)[len(word)]
}

// genSemExpr builds random patterns over a small label pool.
func genSemExpr(rng *rand.Rand, depth int) pattern.Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return pattern.Eps()
		case 1:
			return pattern.Any()
		case 2:
			return pattern.Lit("a(x)")
		case 3:
			return pattern.Lit("b('k')")
		case 4:
			return pattern.Lit("!a(x)")
		default:
			return pattern.Lit("c(x,y)")
		}
	}
	switch rng.Intn(6) {
	case 0:
		return pattern.Seq(genSemExpr(rng, depth-1), genSemExpr(rng, depth-1))
	case 1:
		return pattern.Or(genSemExpr(rng, depth-1), genSemExpr(rng, depth-1))
	case 2:
		return pattern.Rep(genSemExpr(rng, depth-1))
	case 3:
		return pattern.Rep1(genSemExpr(rng, depth-1))
	case 4:
		return pattern.Maybe(genSemExpr(rng, depth-1))
	default:
		return genSemExpr(rng, depth-1)
	}
}

// TestNFAAgreesWithASTSemantics cross-checks the Thompson construction and
// ε-elimination against the direct AST interpreter on random patterns,
// words, and substitutions.
func TestNFAAgreesWithASTSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 400; trial++ {
		u := label.NewUniverse()
		ps := &label.ParamSpace{}
		e := genSemExpr(rng, 3)
		n, err := FromPattern(e, u, ps)
		if err != nil {
			t.Fatalf("FromPattern(%s): %v", pattern.String(e), err)
		}
		// Edge-label pool compiled against the same universe.
		var letters []label.Ground
		for _, s := range []string{"a(k)", "a(m)", "b(k)", "c(k,m)", "d()"} {
			c, err := label.AppendGround(nil, label.MustParse(s, label.GroundMode), u)
			if err != nil {
				t.Fatal(err)
			}
			letters = append(letters, c)
		}
		syms := u.AllSymbols()
		compileCache := map[*label.Term]*label.CTerm{}
		compile := func(tm *label.Term) *label.CTerm {
			if c, ok := compileCache[tm]; ok {
				return c
			}
			c := label.MustCompile(tm, u, ps)
			compileCache[tm] = c
			return c
		}
		for w := 0; w < 40; w++ {
			word := make([]label.Ground, rng.Intn(5))
			for i := range word {
				word[i] = letters[rng.Intn(len(letters))]
			}
			th := make([]int32, ps.Len())
			for i := range th {
				th[i] = syms[rng.Intn(len(syms))]
			}
			want := matchAST(e, word, th, compile)
			got := acceptsNFA(n, word, th)
			if got != want {
				t.Fatalf("pattern %s, word %v, θ %v: NFA %v, AST %v\n%s",
					pattern.String(e), word, th, got, want, n)
			}
		}
	}
}
