package core

import (
	"math/rand"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/subst"
)

// FuzzMemoMatchesMatchAD feeds (pattern label, ground label) pairs through
// the memo. The code it stores must decode, on the miss and on the hit, to
// label.MatchAD's agree/disagree match, and applyMatch's reading of that
// code must agree with label.MatchGround under every full substitution over
// the labels' symbols. The ground label is read from a graph's label slab,
// as the solvers read it. Inputs that do not parse or compile are skipped, as
// are pairs outside the agree/disagree fragment or larger than 3
// parameters / 8 symbols.
func FuzzMemoMatchesMatchAD(f *testing.F) {
	patterns := []string{
		// internal/label's match tests.
		"def(x)", "!def(x)", "def(x,!c)", "use(x,y)", "_", "!def('a')",
		"f(g(x),!h(y))", "seteuid(!0)", "!eq(x,x)", "use(x,_)", "def(_)",
		"!def(_)", "!_", "f(g(x))", "!(def(x)|assign(x))", "f(x,!(g(y)|h(y)))",
		// The rpqcheck catalog's labels.
		"decl(x)", "use(x)", "close(x)", "send(x)", "mcall(x, _)", "lock(m)",
		"!unlock(m)", "!lock(m)", "unlock(m)", "defer(f, s)",
	}
	grounds := []string{
		"def(a)", "def(b)", "use(a,b)", "def(a,5)", "f(g(a),h(b))", "f(g(b),h(a))",
		"use(a)", "eq(a,b)", "eq(a,a)", "seteuid(0)", "seteuid(1)", "assign(a)",
		"f(a,g(a))", "decl(v)", "lock(mu)", "unlock(mu)", "mcall(ch, Close)", "defer(f, s)",
	}
	for _, p := range patterns {
		for _, g := range grounds {
			f.Add(p, g)
		}
	}
	f.Fuzz(func(t *testing.T, pat, ground string) {
		u, ps := label.NewUniverse(), &label.ParamSpace{}
		pt, err := label.Parse(pat, label.PatternMode)
		if err != nil {
			t.Skip()
		}
		tl, err := label.Compile(pt, u, ps)
		if err != nil {
			t.Skip()
		}
		gt, err := label.Parse(ground, label.GroundMode)
		if err != nil {
			t.Skip()
		}
		el, err := label.AppendGround(nil, gt, u)
		if err != nil {
			t.Skip()
		}
		if !tl.ADCompatible() || positiveOr(tl, false) || ps.Len() > 3 || u.NumSymbols() > 8 {
			t.Skip()
		}
		var stats Stats
		g := graph.NewIn(u)
		elID := g.InternLabel(el)
		el = g.Label(elID)
		e := &engine{g: g, stats: &stats, memo: newMatchMemo(1, 1), slab: make([]int32, slabHeader), buf1: subst.New(ps.Len())}
		want := label.MatchAD(tl, el)
		c := codeUnknown
		for _, pass := range []string{"miss", "hit"} {
			c = e.match(tl, 0, elID)
			if got := decodeMatch(e.slab, c); !sameMatch(got, &want) {
				t.Fatalf("%s vs %s on the %s: code %d decodes to %+v, MatchAD %+v", pat, ground, pass, c, got, want)
			}
		}
		if stats.MatchCacheMisses != 1 || stats.MatchCacheHits != 1 {
			t.Fatalf("%d misses and %d hits, want one each", stats.MatchCacheMisses, stats.MatchCacheHits)
		}
		syms := u.AllSymbols()
		th := subst.New(ps.Len())
		var each func(p int)
		each = func(p int) {
			if p < len(th) {
				for _, s := range syms {
					th[p] = s
					each(p + 1)
				}
				return
			}
			got := false
			if c != codeFailed {
				e.applyMatch(c, th, func(subst.Subst) bool { got = true; return true })
			}
			if w := label.MatchGround(tl, el, th); got != w {
				t.Fatalf("%s vs %s under %v: memo reads %v, MatchGround %v", pat, ground, th, got, w)
			}
		}
		each(0)
	})
}

// positiveOr reports whether c holds an alternation that is not the direct
// body of a negation: MatchAD expects those split into automaton
// alternation first.
func positiveOr(c *label.CTerm, underNeg bool) bool {
	if c.Kind == label.KOr && !underNeg {
		return true
	}
	for _, a := range c.Args {
		if positiveOr(a, c.Kind == label.KNeg) {
			return true
		}
	}
	return false
}

// TestMatchMemoRows hands out rows in a random label order and checks that
// they are disjoint, keep their codes, come from chunks of at most 16 KB
// (one chunk no larger than the table when the table is small), and that
// only a label's first touch creates its row.
func TestMatchMemoRows(t *testing.T) {
	for _, c := range []struct{ labels, width, chunks, chunkLen int }{
		{3000, 5, 6, 512 * 5},
		{3, 5, 1, 15},
		{10, 5000, 10, 5000},
		{4, 0, 1, 0},
	} {
		m := newMatchMemo(c.labels, c.width)
		order := rand.New(rand.NewSource(int64(c.labels))).Perm(c.labels)
		for i, el := range order {
			row, created := m.row(int32(el))
			if !created || len(row) != c.width {
				t.Fatalf("%+v: label %d: created %v, %d codes", c, el, created, len(row))
			}
			for j := range row {
				row[j] = int32(el*c.width + j + 1)
			}
			if _, created := m.row(int32(order[i/2])); created {
				t.Fatalf("%+v: label %d's row created twice", c, order[i/2])
			}
		}
		for el := range c.labels {
			row, _ := m.row(int32(el))
			for j, code := range row {
				if code != int32(el*c.width+j+1) {
					t.Fatalf("%+v: label %d slot %d holds %d", c, el, j, code)
				}
			}
		}
		if len(m.chunks) != c.chunks {
			t.Errorf("%+v: %d chunks", c, len(m.chunks))
		}
		for _, ch := range m.chunks {
			if len(ch) != c.chunkLen || (len(ch) > memoChunkCodes && c.width <= memoChunkCodes) {
				t.Errorf("%+v: chunk of %d codes", c, len(ch))
			}
		}
	}
}
