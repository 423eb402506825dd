//go:build !race

package core

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/gofront"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// TestExistAllocsPerInsert guards the allocation budget of the existential
// worklist loop: it allocates only when it discovers something new (a
// substitution, a reach-set base, a memo entry), never per (edge,
// transition) attempt. The backward uninitialized-use query on the "cut"
// program (Table 1) must make at most one malloc per worklist insert,
// setup included. Race instrumentation changes allocation counts, hence the
// build tag.
func TestExistAllocsPerInsert(t *testing.T) {
	g := gen.Program(gen.Table1Specs()[4])
	start := int32(-1)
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				start = e.To
			}
		}
	}
	if start < 0 {
		t.Fatal("generated program has no exit() edge")
	}
	r := g.Reverse()
	q := MustCompile(pattern.MustParse("_* use(x,l) (!def(x))* entry()"), r.U)
	for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp} {
		t.Run(algo.String(), func(t *testing.T) {
			opts := Options{Algo: algo, Table: subst.Hash}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := Exist(r, start, q, opts)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			inserts := res.Stats.WorklistInserts
			perInsert := float64(m1.Mallocs-m0.Mallocs) / float64(inserts)
			t.Logf("%d mallocs for %d inserts: %.2f per insert", m1.Mallocs-m0.Mallocs, inserts, perInsert)
			if perInsert > 1 {
				t.Errorf("%.2f mallocs per worklist insert, want <= 1", perInsert)
			}
		})
	}
}

// TestExistAllocsPerReachedBase guards the bytes an existential solve
// allocates per reached (v, s) base of the reach set, on the shape of
// rpqcheck's solves: the uninit-use check over the benchmod Go program
// under AlgoMemo (rpq's default for existential queries). Every reached
// base holds one substitution key and most (edge label, transition label)
// pairs fail to match: 50 bytes per base on go1.24, linux/amd64, where
// a heap Match per successful memo miss, pointer memo rows and a
// string-keyed substitution table took 134, a domain table rebuilt from
// every graph label per solve 170, and slice-header base entries, a
// keyset per single-key base and a fresh Match per failed pair 345. The
// guard reads the least of ten solves. The reached bases are counted by an
// independent closure over the same matcher, which must agree with the
// solver's ReachSize.
func TestExistAllocsPerReachedBase(t *testing.T) {
	const budget = 51 // bytes per reached base
	prog, err := gofront.Load([]string{"../../testdata/goprog/benchmod/..."}, gofront.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Graph
	q := MustCompile(pattern.MustParse("_* decl(x) (!def(x))* use(x)"), g.U)
	bases, triples := reachedBases(t, g, g.Start(), q)
	// TotalAlloc is process-wide: another goroutine allocating during a
	// solve only adds to that solve's figure, and the solves themselves
	// are deterministic, so the least of several is the solve's own cost.
	const runs = 10
	perSolve := make([]float64, runs)
	for i := range perSolve {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Exist(g, g.Start(), q, Options{Algo: AlgoMemo, Table: subst.Hash})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReachSize != triples {
			t.Fatalf("closure reached %d triples, solver %d", triples, res.Stats.ReachSize)
		}
		perSolve[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(bases)
	}
	perBase := slices.Min(perSolve)
	t.Logf("%d reached bases (%d triples, %d×%d dense): %.0f bytes per base (per solve: %.1f)",
		bases, triples, g.NumVertices(), q.NFA.NumStates, perBase, perSolve)
	if perBase > budget {
		t.Errorf("%.0f bytes per reached base, budget %d", perBase, budget)
	}
}

// reachedBases computes the existential reach set of q from v0 with Go
// maps and returns its distinct (v, s) bases and its triples.
func reachedBases(t *testing.T, g *graph.Graph, v0 int32, q *Query) (bases, triples int) {
	var stats Stats
	e, err := newEngine(g, q, q.NFA, Options{Algo: AlgoBasic}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[triple]bool{}
	based := map[[2]int32]bool{}
	var work []triple
	push := func(v, s int32, th subst.Subst) {
		tr := triple{v: v, s: s, th: e.table.Key(th)}
		if !seen[tr] {
			seen[tr] = true
			based[[2]int32{v, s}] = true
			work = append(work, tr)
		}
	}
	push(v0, q.NFA.Start, subst.New(q.Pars()))
	for len(work) > 0 {
		tr := work[len(work)-1]
		work = work[:len(work)-1]
		th := e.table.Get(tr.th)
		for _, ge := range g.Out(tr.v) {
			for i, tl := range q.NFA.Trans[tr.s] {
				e.forEachMatch(tl.Label, e.tlIDs[tr.s][i], ge.LabelID, th, func(th2 subst.Subst) bool {
					push(ge.To, tl.To, th2)
					return true
				})
			}
		}
	}
	return len(based), len(seen)
}

// TestComputeDomainsAllocs guards the refined-domain computation on a
// graph whose label index is built: a second ComputeDomains over benchmod
// allocates the Domains slice and one union per parameter that occurs at
// several positions, nothing per graph label. A single-position domain is
// the index's own slice.
func TestComputeDomainsAllocs(t *testing.T) {
	prog, err := gofront.Load([]string{"../../testdata/goprog/benchmod/..."}, gofront.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Graph
	for _, c := range []struct {
		pat    string
		unions int
	}{
		{"_* decl(x) (!def(x))* use(x)", 1},
		{"_* close(x) (!def(x))* (close(x) | send(x) | mcall(x, _))", 1},
		{"(!lock(m))* unlock(m)", 0},
		{"_* defer(f, s) _* defer(f, s)", 0},
	} {
		q := MustCompile(pattern.MustParse(c.pat), g.U)
		ComputeDomains(q, g, DomainsRefined)
		allocs := testing.AllocsPerRun(10, func() { ComputeDomains(q, g, DomainsRefined) })
		if want := float64(1 + c.unions); allocs != want {
			t.Errorf("%q: %.0f allocations per ComputeDomains, want %.0f", c.pat, allocs, want)
		}
	}
}

// TestMemoMissAllocs guards the memo's miss path: matching every (edge
// label, transition label) pair of benchmod against each of the five
// rpqcheck patterns on a fresh engine allocates only code-row chunks and
// slab growth, so the count does not grow with the number of misses.
func TestMemoMissAllocs(t *testing.T) {
	prog, err := gofront.Load([]string{"../../testdata/goprog/benchmod/..."}, gofront.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Graph
	for _, pat := range benchmodPatterns[:5] {
		q := MustCompile(pattern.MustParse(pat), g.U)
		var stats Stats
		e, err := newEngine(g, q, q.NFA, Options{Algo: AlgoMemo, Table: subst.Hash}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for elID := range g.NumLabels() {
			for id, tl := range q.NFA.Labels {
				e.match(tl, int32(id), int32(elID))
			}
		}
		runtime.ReadMemStats(&m1)
		allocs := m1.Mallocs - m0.Mallocs
		// Each slab growth at least multiplies its capacity by 1.25, so
		// 2·log2(cap) bounds the regrowths; 8 covers the matcher's
		// scratch warming up.
		budget := uint64(len(e.memo.chunks) + 2*bits.Len(uint(cap(e.slab))) + 8)
		t.Logf("%q: %d misses, %d chunks, slab %d: %d allocations (budget %d)",
			pat, stats.MatchCacheMisses, len(e.memo.chunks), len(e.slab), allocs, budget)
		if allocs > budget {
			t.Errorf("%q: %d allocations for %d misses, budget %d", pat, allocs, stats.MatchCacheMisses, budget)
		}
	}
}
