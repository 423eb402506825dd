package gen

import (
	"testing"

	"rpq/internal/core"
	"rpq/internal/pattern"
)

func TestProgramDeterministic(t *testing.T) {
	spec := ProgSpec{Name: "t", Seed: 7, Edges: 500, Vars: 20, UninitFrac: 0.1, EntryLoop: true}
	a := Program(spec)
	b := Program(spec)
	if a.String() != b.String() {
		t.Fatalf("generation is not deterministic")
	}
	spec.Seed = 8
	c := Program(spec)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical graphs")
	}
}

func TestProgramSizeNearTarget(t *testing.T) {
	for _, edges := range []int{200, 1000, 4000} {
		g := Program(ProgSpec{Name: "t", Seed: 3, Edges: edges, Vars: 30, UninitFrac: 0.1})
		got := g.NumEdges()
		if got < edges*85/100 || got > edges*115/100 {
			t.Errorf("target %d edges, generated %d (off by more than 15%%)", edges, got)
		}
	}
}

func TestProgramConnectivity(t *testing.T) {
	g := Program(ProgSpec{Name: "t", Seed: 5, Edges: 800, Vars: 25, UninitFrac: 0.1, EntryLoop: true})
	reach := g.Reachable(g.Start())
	for v := 0; v < g.NumVertices(); v++ {
		if !reach[v] {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
}

func TestProgramUninitAnalysisFindsResults(t *testing.T) {
	spec := Table1Specs()[0] // cksum-shaped
	g := Program(spec)
	// The preset labels uses with site numbers, so the forward query reads
	// use(x,_).
	q := core.MustCompile(pattern.MustParse("(!def(x))* use(x,_)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatalf("no uninitialized uses generated; the Table 1 reproduction needs a nonempty result")
	}
	// The backward query must find the same variables.
	r := g.Reverse()
	var exitV int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			if g.Label(e.LabelID).Format(g.U) == "exit()" {
				exitV = e.To
			}
		}
	}
	if exitV < 0 {
		t.Fatal("no exit edge")
	}
	qb := core.MustCompile(pattern.MustParse("_* use(x,l) (!def(x))* entry()"), r.U)
	resB, err := core.Exist(r, exitV, qb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwdVars := map[int32]bool{}
	x, _ := q.PS.Lookup("x")
	for _, p := range res.Pairs {
		fwdVars[p.Subst[x]] = true
	}
	xb, _ := qb.PS.Lookup("x")
	bwdVars := map[int32]bool{}
	for _, p := range resB.Pairs {
		bwdVars[p.Subst[xb]] = true
	}
	for v := range bwdVars {
		if !fwdVars[v] {
			t.Errorf("backward query found %s not in forward results", g.U.Syms.Name(v))
		}
	}
	if len(bwdVars) == 0 {
		t.Errorf("backward query found nothing")
	}
}

func TestTable1SpecsMatchPaperSizes(t *testing.T) {
	specs := Table1Specs()
	if len(specs) != 9 {
		t.Fatalf("%d specs, want 9", len(specs))
	}
	if specs[0].Name != "cksum" || specs[0].Edges != 521 {
		t.Errorf("first row %+v", specs[0])
	}
	if specs[8].Name != "ratfor" || specs[8].Edges != 7617 {
		t.Errorf("last row %+v", specs[8])
	}
}

func TestRandomLTSShape(t *testing.T) {
	spec := LTSSpec{Name: "t", Seed: 1, States: 300, Trans: 1200, Actions: 8, Deadlocks: 2, InvisibleFrac: 0.2}
	l := RandomLTS(spec)
	if l.NumStates != 300 || len(l.Trans) != 1200 {
		t.Fatalf("states/trans = %d/%d", l.NumStates, len(l.Trans))
	}
	dead := l.DeadlockStates()
	if len(dead) != 2 {
		t.Fatalf("deadlocks = %d, want 2", len(dead))
	}
	// Deterministic.
	if RandomLTS(spec).String() != l.String() {
		t.Fatalf("LTS generation is not deterministic")
	}
	// All states reachable by construction.
	g := l.ForExistential()
	reach := g.Reachable(g.Start())
	for v := 0; v < g.NumVertices(); v++ {
		if !reach[v] {
			t.Fatalf("state %d unreachable", v)
		}
	}
}

func TestTable2SpecsMatchPaperSizes(t *testing.T) {
	specs := Table2Specs()
	if len(specs) != 8 {
		t.Fatalf("%d specs, want 8", len(specs))
	}
	// Graph edges = transitions + one state self-loop per state must equal
	// the paper's "graph edges" column.
	wantGraphEdges := []int{1513, 4339, 5647, 14878, 18548, 33290, 47345, 67005}
	for i, s := range specs {
		if s.Trans+s.States != wantGraphEdges[i] {
			t.Errorf("%s: transitions %d + states %d != paper graph edges %d",
				s.Name, s.Trans, s.States, wantGraphEdges[i])
		}
	}
}

func TestDeadlockQueryResultSizeMatchesShape(t *testing.T) {
	// The paper's Table 2 result size equals the number of transitions of
	// the LTS (each act edge yields a distinct pair); verify on a small
	// instance.
	spec := LTSSpec{Name: "t", Seed: 9, States: 60, Trans: 240, Actions: 6, InvisibleFrac: 0.2}
	l := RandomLTS(spec)
	g := l.ForExistential()
	q := core.MustCompile(pattern.MustParse("_* state(s) act(_)"), g.U)
	res, err := core.Exist(g, g.Start(), q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Result pairs are (target vertex, {s↦source}) per transition, deduped
	// for parallel edges: at most Trans, and near it for random graphs.
	if len(res.Pairs) > 240 || len(res.Pairs) < 240*70/100 {
		t.Errorf("result size %d far from transition count 240", len(res.Pairs))
	}
}

func TestFindSpec(t *testing.T) {
	if p, _, isProg, err := FindSpec("cksum"); err != nil || !isProg || p.Name != "cksum" {
		t.Errorf("FindSpec(cksum) = %+v, %v, %v", p, isProg, err)
	}
	if _, l, isProg, err := FindSpec("vasy-0-1"); err != nil || isProg || l.Name != "vasy-0-1" {
		t.Errorf("FindSpec(vasy-0-1) = %+v, %v, %v", l, isProg, err)
	}
	if _, _, _, err := FindSpec("nonexistent"); err == nil {
		t.Errorf("FindSpec(nonexistent) succeeded")
	}
}
