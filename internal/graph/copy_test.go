package graph

import (
	"sync"
	"testing"

	"rpq/internal/label"
)

// copyKinds are the operations that return a graph sharing the vertex
// table of their receiver.
var copyKinds = []struct {
	name string
	copy func(*Graph) *Graph
}{
	{"Clone", (*Graph).Clone},
	{"Reverse", (*Graph).Reverse},
	{"CompactFor", func(g *Graph) *Graph {
		return g.CompactFor([]*label.CTerm{label.MustCompile(label.Wildcard(), g.U, &label.ParamSpace{})})
	}},
	{"ReverseOfClone", func(g *Graph) *Graph { return g.Clone().Reverse() }},
}

// TestCopiesShareVertices: every copy numbers and names the vertices as
// the original does, and a vertex interned into either graph after the
// copy, in either order, never appears in the other.
func TestCopiesShareVertices(t *testing.T) {
	for _, k := range copyKinds {
		for _, copyFirst := range []bool{true, false} {
			g := MustReadString(figure1)
			n := int32(g.NumVertices())
			c := k.copy(g)
			if c.NumVertices() != int(n) || c.Start() != g.Start() {
				t.Fatalf("%s: %d vertices, start %d; original %d, %d", k.name, c.NumVertices(), c.Start(), n, g.Start())
			}
			for v := int32(0); v < n; v++ {
				name := g.VertexName(v)
				if c.VertexName(v) != name {
					t.Fatalf("%s: vertex %d is %q, original %q", k.name, v, c.VertexName(v), name)
				}
				if id, ok := c.LookupVertex(name); !ok || id != v {
					t.Fatalf("%s: LookupVertex(%q) = %d, %v; want %d", k.name, name, id, ok, v)
				}
			}
			// Each side looks the other's new vertex up before adding its
			// own, while the table may still be shared.
			var cv, gv int32
			if copyFirst {
				cv = c.Vertex("only-copy")
				if _, ok := g.LookupVertex("only-copy"); ok {
					t.Errorf("%s: the copy's new vertex reached the original", k.name)
				}
				gv = g.Vertex("only-orig")
			} else {
				gv = g.Vertex("only-orig")
				if _, ok := c.LookupVertex("only-orig"); ok || c.NumVertices() != int(n) {
					t.Errorf("%s: the original's new vertex reached the copy", k.name)
				}
				cv = c.Vertex("only-copy")
			}
			if cv != n || gv != n {
				t.Fatalf("%s: new vertices numbered %d (copy), %d (original); want %d", k.name, cv, gv, n)
			}
			if c.VertexName(n) != "only-copy" || g.VertexName(n) != "only-orig" {
				t.Fatalf("%s: vertex %d is %q on the copy, %q on the original", k.name, n, c.VertexName(n), g.VertexName(n))
			}
			if _, ok := c.LookupVertex("only-orig"); ok {
				t.Errorf("%s: the original's new vertex reached the copy", k.name)
			}
			if _, ok := g.LookupVertex("only-copy"); ok {
				t.Errorf("%s: the copy's new vertex reached the original", k.name)
			}
			if c.Vertex("v3") != g.Vertex("v3") || c.NumVertices() != int(n)+1 || g.NumVertices() != int(n)+1 {
				t.Errorf("%s: shared vertices diverged after the additions", k.name)
			}
		}
	}
}

// TestConcurrentReverse reverses one built graph from many goroutines;
// run under -race it checks that taking a copy writes nothing to the
// original.
func TestConcurrentReverse(t *testing.T) {
	g := benchGraph(500, 2000, 3)
	want := g.Reverse().String()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := g.Reverse()
			if r.String() != want {
				errs <- "concurrent Reverse differs from a sequential one"
			}
			if v, ok := r.LookupVertex("v499"); !ok || r.VertexName(v) != "v499" {
				errs <- "concurrent Reverse lost a vertex name"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
