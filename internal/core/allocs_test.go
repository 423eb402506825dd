//go:build !race

package core

import (
	"runtime"
	"testing"

	"rpq/internal/gen"
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
			if e.Label.Format(g.U, nil) == "exit()" {
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
