package rpq

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestCompileLeavesGraphUniverse: a pattern naming a symbol or constructor
// the graph lacks compiles it into a name local to the query, so the
// graph's universe, and with it the AllSymbols domain of every later
// query, stays as it was.
func TestCompileLeavesGraphUniverse(t *testing.T) {
	g, err := ReadGraphString("start a\nedge a def(s) b\n")
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Domains: AllSymbols}
	neg := MustParsePattern("!def(x)")
	run := func(p *Pattern) []string {
		t.Helper()
		res, err := g.Exist(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return answers(res)
	}
	if got := run(neg); len(got) != 0 {
		t.Fatalf("!def(x) before: %v, want none", got)
	}
	syms, ctors := g.Internal().U.NumSymbols(), g.Internal().U.Ctors.Len()
	for _, pat := range []string{"def('zzz')", "undef('zzz')", "def(x) !use('y')"} {
		if got := run(MustParsePattern(pat)); len(got) != 0 {
			t.Errorf("%s: %v, want none: the graph has no such label", pat, got)
		}
	}
	if got := run(neg); len(got) != 0 {
		t.Errorf("!def(x) after unrelated queries: %v, want none", got)
	}
	if s, c := g.Internal().U.NumSymbols(), g.Internal().U.Ctors.Len(); s != syms || c != ctors {
		t.Errorf("queries grew the graph's universe from %d symbols, %d constructors to %d, %d", syms, ctors, s, c)
	}
	// A name the graph gains after a query compiled is the graph's from
	// then on, cache or no cache.
	opts.Cache = NewQueryCache(4)
	zzz := MustParsePattern("_* def('zzz')")
	if got := run(zzz); len(got) != 0 {
		t.Fatalf("_* def('zzz') before the edge: %v, want none", got)
	}
	g.MustAddEdge("b", "def(zzz)", "c")
	if got := run(zzz); !slices.Equal(got, []string{"c {}"}) {
		t.Errorf("_* def('zzz') after the edge: %v, want [c {}]", got)
	}
}

// TestConcurrentExistFreshConstants runs existential queries naming
// constants the graph lacks from several goroutines over one graph; under
// -race it fails if compiling writes the graph's shared universe.
func TestConcurrentExistFreshConstants(t *testing.T) {
	g := figure1Graph(t)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				p := MustParsePattern(fmt.Sprintf("_* use('fresh%d_%d') | _* op%d_%d(x)", w, i, w, i))
				res, err := g.Exist(p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Answers) != 0 {
					t.Errorf("%s: %v, want none", p, answers(res))
					return
				}
			}
		}()
	}
	wg.Wait()
}
