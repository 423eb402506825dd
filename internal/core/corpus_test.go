package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// workload is one (graph, start, query) instance of the test corpus.
type workload struct {
	name  string
	g     *graph.Graph
	start int32
	pat   string
}

// corpus builds the randomized test corpus: generated program graphs
// (forward and backward formulations), a random cyclic graph, and a tiny
// handcrafted graph where every vertex is an answer.
func corpus(t testing.TB) []workload {
	var ws []workload

	pg := gen.Program(gen.ProgSpec{
		Name: "par", Seed: 7, Edges: 320, Vars: 16, UninitFrac: 0.25,
		UseSites: true, EntryLoop: true,
	})
	ws = append(ws, workload{"prog-fwd", pg, pg.Start(), "(!def(x))* use(x,_)"})

	// Backward formulation from after the exit() edge, as in the paper.
	rg := pg.Reverse()
	rstart := int32(-1)
	for v := 0; v < pg.NumVertices(); v++ {
		for _, e := range pg.Out(int32(v)) {
			if pg.Label(e.LabelID).Format(pg.U) == "exit()" {
				rstart = e.To
			}
		}
	}
	if rstart < 0 {
		t.Fatal("generated program has no exit() edge")
	}
	ws = append(ws, workload{"prog-bwd", rg, rstart, "_* use(x,l) (!def(x))* entry()"})

	// Random cyclic graph: many SCCs, dense label reuse.
	rng := rand.New(rand.NewSource(42))
	cg := graph.New()
	n := 120
	labels := []string{"def(a)", "def(b)", "def(c)", "use(a)", "use(b)", "use(c)", "nop()"}
	for i := 0; i < n; i++ {
		cg.Vertex(fmt.Sprintf("v%d", i))
	}
	cg.SetStart(0)
	for i := 0; i < 5*n; i++ {
		cg.MustAddEdgeStr(fmt.Sprintf("v%d", rng.Intn(n)), labels[rng.Intn(len(labels))], fmt.Sprintf("v%d", rng.Intn(n)))
	}
	ws = append(ws, workload{"cyclic", cg, cg.Start(), "(!def(x))* use(x)"})

	hg := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 use(a) v2
edge v2 use(b) v0
edge v1 def(b) v1
`)
	ws = append(ws, workload{"hand", hg, hg.Start(), "_* use(x)"})
	return ws
}

// TestPackPairBoundary is the regression test for the int32 ⟨v,s⟩ packing
// overflow: products beyond 2³¹ must round-trip through the 64-bit packing
// without collision, and the dense-base constructors must reject dimensions
// the arrays cannot hold.
func TestPackPairBoundary(t *testing.T) {
	// Near-boundary synthetic case: |V|·|S| just above 2³¹. int32 packing
	// (v*states+s) would wrap negative here.
	verts, states := int32(214_748_365), 10 // verts*states = 2³¹ + …
	top := packPair(verts-1, int32(states-1), states)
	if top != int64(verts-1)*int64(states)+int64(states-1) {
		t.Fatalf("packPair = %d", top)
	}
	if int64(int32(top)) == top {
		t.Fatalf("test is not exercising the overflow region (top = %d)", top)
	}
	v, s := unpackPair(top, states)
	if v != verts-1 || s != int32(states-1) {
		t.Fatalf("unpackPair(packPair) = (%d, %d), want (%d, %d)", v, s, verts-1, states-1)
	}
	// Distinct pairs around the old wrap point stay distinct.
	seen := map[int64]bool{}
	for dv := int32(-2); dv <= 2; dv++ {
		for ds := int32(0); ds < int32(states); ds++ {
			p := packPair(verts-3+dv, ds, states)
			if seen[p] {
				t.Fatalf("collision at (%d, %d)", verts-3+dv, ds)
			}
			seen[p] = true
		}
	}

	if err := checkDenseBase(int(verts), states); err == nil {
		t.Fatal("checkDenseBase accepted |V|·|S| > 2³¹")
	} else if !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("checkDenseBase error %v is not subst.ErrCapacity", err)
	}
	if err := checkDenseBase(1000, 10); err != nil {
		t.Fatalf("checkDenseBase rejected a small base: %v", err)
	}

	if _, err := newTripleSet(subst.Hash, int(verts), states); !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("newTripleSet error = %v, want ErrCapacity", err)
	}
	if _, err := newTripleSet(subst.Nested, int(verts), states); !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("newTripleSet(Nested) error = %v, want ErrCapacity", err)
	}
}

// TestEnumEpochReset checks the epoch-counter reset agrees with the eager
// clear, including across a forced epoch wraparound.
func TestEnumEpochReset(t *testing.T) {
	g := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 use(a) v2
edge v2 use(b) v0
`)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	run := func() string {
		res, err := Exist(g, g.Start(), q, Options{Algo: AlgoEnum})
		if err != nil {
			t.Fatal(err)
		}
		return res.Format(g, q)
	}
	epoch := run()
	enumEagerClear = true
	eager := run()
	enumEagerClear = false
	if epoch != eager {
		t.Fatalf("epoch reset answers differ from eager clear:\n%s\nvs\n%s", epoch, eager)
	}
	// Wraparound: reset at the max epoch must clear and restart at 1.
	es, err := newEnumState(g, q.NFA)
	if err != nil {
		t.Fatal(err)
	}
	es.epoch = ^uint32(0)
	es.seen[0] = es.epoch // visited in the current epoch
	es.reset()
	if es.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", es.epoch)
	}
	if es.seen[0] == es.epoch {
		t.Fatal("stale visit survived the wraparound clear")
	}
}
