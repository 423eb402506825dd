package label

import (
	"math/rand"
	"slices"
	"testing"
)

// matchCorpus returns every transition and edge label used by the match
// tests, plus negated alternations whose number of disagree sets varies
// from call to call.
func matchCorpus(e *env) (tls []*CTerm, els []Ground) {
	for _, s := range []string{
		"def(x)", "eq(x,x)", "_", "def(_)", "use(x,_)", "def('a')", "f(x)",
		"f(g(x))", "!def('a')", "seteuid(!0)", "!_", "!def(_)", "!def(x)",
		"def(x,!c)", "!eq(x,x)", "use(x,y)", "f(g(x),!h(y))",
		"!(def(x)|use(x))", "!(f(x,_)|f(_,x))", "!(f('a')|g(x))",
		"use(y,!(f(x)|g(x)))", "!(f(x,_,_)|f(_,y,_)|f(_,_,x))",
	} {
		tls = append(tls, e.tl(s))
	}
	for _, s := range []string{
		"def(a)", "def(b)", "use(a)", "def(a,5)", "use(a,17)", "use(a,b)",
		"eq(a,a)", "eq(a,b)", "seteuid(0)", "seteuid(1)", "f(a)", "f(b)",
		"f(g(a))", "f(a,b)", "f(a,a)", "g(b)", "h(a)", "assign(a)",
		"f(g(a),h(b))", "f(g(b),h(a))", "use(a,f(b))", "use(b,g(a))",
		"f(a,b,c)", "f(c,b,a)", "f(a,a,a)",
	} {
		els = append(els, e.el(s))
	}
	return tls, els
}

// sameMatch reports whether two matches are equal, treating nil and empty
// slices alike and ignoring the fields of failed matches.
func sameMatch(a, b *Match) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if !slices.Equal(a.Agree, b.Agree) || len(a.Disagrees) != len(b.Disagrees) {
		return false
	}
	for i := range a.Disagrees {
		if !slices.Equal(a.Disagrees[i], b.Disagrees[i]) {
			return false
		}
	}
	return slices.Equal(a.DisagreeParams(), b.DisagreeParams())
}

// TestMatchADIntoReuse checks that matching into one dirty, reused Match
// gives what a fresh MatchAD gives, for every label pair of the match tests
// in several orders. The negated alternations make the number of disagree
// sets grow and shrink between consecutive calls, so a stale inner
// Bindings slice would show up here.
func TestMatchADIntoReuse(t *testing.T) {
	e := newEnv()
	tls, els := matchCorpus(e)
	type pair struct {
		tl *CTerm
		el Ground
	}
	var pairs []pair
	for _, tl := range tls {
		for _, el := range els {
			pairs = append(pairs, pair{tl, el})
		}
	}
	rng := rand.New(rand.NewSource(3))
	var reused Match
	for round := 0; round < 4; round++ {
		for _, p := range pairs {
			fresh := MatchAD(p.tl, p.el)
			MatchADInto(&reused, p.tl, p.el)
			if !sameMatch(&reused, &fresh) {
				t.Fatalf("round %d: %s vs %s: reused %+v, fresh %+v", round,
					p.tl.Format(e.u, e.ps), p.el.Format(e.u), reused, fresh)
			}
			// DisagreeParams is the sorted set of disagree parameters.
			var want []int32
			for _, d := range fresh.Disagrees {
				for _, b := range d {
					if !slices.Contains(want, b.Param) {
						want = append(want, b.Param)
					}
				}
			}
			slices.Sort(want)
			if fresh.OK && !slices.Equal(reused.DisagreeParams(), want) {
				t.Fatalf("%s vs %s: DisagreeParams = %v, want %v",
					p.tl.Format(e.u, e.ps), p.el.Format(e.u), reused.DisagreeParams(), want)
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	}

	// The aliasing case spelled out: three disagree sets, then none, then
	// two, then three again.
	tl := e.tl("!(f(x,_,_)|f(_,y,_)|f(_,_,x))")
	for _, s := range []string{"f(a,b,c)", "g(b)", "f(a,b,a)", "f(c,b,a)"} {
		el := e.el(s)
		fresh := MatchAD(tl, el)
		MatchADInto(&reused, tl, el)
		if !sameMatch(&reused, &fresh) {
			t.Fatalf("vs %s: reused %+v, fresh %+v", s, reused, fresh)
		}
	}
}
