package rpq

// Shape-regression tests: the experiment harness (cmd/experiments) and the
// benchmarks reproduce the paper's Tables 1-3 and Figure 3; these tests pin
// the qualitative shapes so a refactor cannot silently lose them.

import (
	"testing"

	"rpq/internal/core"
	"rpq/internal/gen"
	"rpq/internal/pattern"
	"rpq/internal/queries"
)

func TestShapeTable1(t *testing.T) {
	spec := gen.Table1Specs()[0] // cksum
	g := gen.Program(spec)
	r := g.Reverse()
	var start int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				start = e.To
			}
		}
	}
	if start < 0 {
		t.Fatal("no exit edge")
	}
	bq := core.MustCompile(pattern.MustParse("_* use(x,l) (!def(x))* entry()"), r.U)
	basic, err := core.Exist(r, start, bq, core.Options{Algo: core.AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Exist(r, start, bq, core.Options{Algo: core.AlgoPrecomp})
	if err != nil {
		t.Fatal(err)
	}
	// Basic and precomputation share worklist sizes and results (Table 1).
	if basic.Stats.WorklistInserts != pre.Stats.WorklistInserts {
		t.Errorf("worklists differ: %d vs %d", basic.Stats.WorklistInserts, pre.Stats.WorklistInserts)
	}
	if basic.Stats.ResultPairs != pre.Stats.ResultPairs {
		t.Errorf("results differ: %d vs %d", basic.Stats.ResultPairs, pre.Stats.ResultPairs)
	}
	// Result size in the paper's ballpark for cksum (result 20).
	if basic.Stats.ResultPairs < 5 || basic.Stats.ResultPairs > 80 {
		t.Errorf("cksum result size %d out of the expected band", basic.Stats.ResultPairs)
	}
	// Precomputation must not lose to basic on match calls.
	if pre.Stats.MatchCalls > basic.Stats.MatchCalls {
		t.Errorf("precomputation computed more matches: %d vs %d", pre.Stats.MatchCalls, basic.Stats.MatchCalls)
	}
}

func TestShapeTable2(t *testing.T) {
	spec := gen.Table2Specs()[0] // vasy-0-1: paper worklist 1,802, result 1,224
	g := gen.RandomLTS(spec).ForExistential()
	a, err := queries.ByName("lts-deadlock")
	if err != nil {
		t.Fatal(err)
	}
	q := core.MustCompile(pattern.MustParse(a.Pattern), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{Algo: core.AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	// Structural quantities: the paper's worklist is 1,802 and result 1,224
	// for this row; ours depend only on the matched sizes, so they must be
	// within a few percent.
	if res.Stats.WorklistInserts < 1700 || res.Stats.WorklistInserts > 1900 {
		t.Errorf("vasy-0-1 worklist %d, want ≈1802", res.Stats.WorklistInserts)
	}
	if res.Stats.ResultPairs < 1150 || res.Stats.ResultPairs > 1300 {
		t.Errorf("vasy-0-1 result %d, want ≈1224", res.Stats.ResultPairs)
	}
	// Enumeration is far larger on this workload (paper: 85,034).
	enum, err := core.Exist(g, g.Start(), q, core.Options{Algo: core.AlgoEnum})
	if err != nil {
		t.Fatal(err)
	}
	if enum.Stats.WorklistInserts < 10*res.Stats.WorklistInserts {
		t.Errorf("enumeration worklist %d not ≫ basic %d", enum.Stats.WorklistInserts, res.Stats.WorklistInserts)
	}
	// The enumerated substitution count equals the number of states.
	if enum.Stats.EnumSubsts != spec.States {
		t.Errorf("enum substs %d, want %d", enum.Stats.EnumSubsts, spec.States)
	}
}

func TestShapeTable3(t *testing.T) {
	spec := gen.Table1Specs()[4] // cut
	g := gen.Program(spec)
	r := g.Reverse()
	var start int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				start = e.To
			}
		}
	}
	bq := core.MustCompile(pattern.MustParse("_* use(x,l) (!def(x))* entry()"), r.U)
	hash, err := core.Exist(r, start, bq, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := core.Exist(r, start, bq, core.Options{Table: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Nested arrays use strictly more memory on this sparse workload.
	if nested.Stats.Bytes <= hash.Stats.Bytes {
		t.Errorf("nested %d bytes not above hashing %d", nested.Stats.Bytes, hash.Stats.Bytes)
	}
	// Enumeration's memory is far below both (Table 3's third pairing).
	fq := core.MustCompile(pattern.MustParse("(!def(x))* use(x,_)"), g.U)
	enum, err := core.Exist(g, g.Start(), fq, core.Options{Algo: core.AlgoEnum})
	if err != nil {
		t.Fatal(err)
	}
	if enum.Stats.Bytes*10 > hash.Stats.Bytes {
		t.Errorf("enumeration bytes %d not ≪ hashing %d", enum.Stats.Bytes, hash.Stats.Bytes)
	}
}

func TestShapeSCCOrderSavesMemory(t *testing.T) {
	spec := gen.Table1Specs()[2] // expand
	g := gen.Program(spec)
	r := g.Reverse()
	var start int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				start = e.To
			}
		}
	}
	bq := core.MustCompile(pattern.MustParse("_* use(x,l) (!def(x))* entry()"), r.U)
	plain, err := core.Exist(r, start, bq, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scc, err := core.Exist(r, start, bq, core.Options{SCCOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if scc.Stats.PeakTriples*2 > plain.Stats.PeakTriples {
		t.Errorf("SCC ordering did not cut peak triples: %d vs %d",
			scc.Stats.PeakTriples, plain.Stats.PeakTriples)
	}
	if scc.Stats.ResultPairs != plain.Stats.ResultPairs {
		t.Errorf("SCC ordering changed the result: %d vs %d",
			scc.Stats.ResultPairs, plain.Stats.ResultPairs)
	}
}
