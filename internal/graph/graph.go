// Package graph implements the edge-labeled directed graphs that parametric
// regular path queries run on (Liu et al., PLDI 2004, Section 2.4): a set of
// labeled edges ⟨v1, el, v2⟩ with a distinguished start vertex, plus the
// supporting operations the paper uses — reversal for backward queries,
// strongly connected components for SCC-ordered processing (Section 5.3),
// and query-relevant compaction (Section 5.3).
//
// # Concurrency
//
// A Graph is read-mostly: construction (Grow, Vertex, AddEdge*,
// InternLabel, SetStart, the readers in io.go and the front ends) must
// happen before any query runs and is not safe for concurrent use. Once
// built, every accessor — Out, Labels, Label, NumVertices, NumEdges, Start,
// VertexName, SCC — is a pure read of immutable state and is safe to call
// from any number of goroutines simultaneously; the query service relies
// on this to run concurrent queries over one Graph without locks. The one
// lazily built part, the label index (LabelIndex), is published atomically
// and is safe to read concurrently too. Mutating a graph while a query
// runs on it is a data race.
//
// The copies (Clone, Reverse, CompactFor) share their receiver's vertex
// table rather than re-interning every name, and taking one only reads the
// receiver, so concurrent copies of a built graph are safe too. A vertex
// added to either graph after the copy stays out of the other: each graph
// reads only its own first NumVertices names, and a copy interning a new
// name first takes a private copy of the table. Adding a vertex to the
// original while one of its copies is read concurrently is a data race;
// so is adding a name to the original's universe while a Clone, which
// reads those names through an overlay, is in use. Clone and CompactFor
// build their own label index on first read; Reverse shares its
// receiver's (see Reverse).
package graph

import (
	"slices"
	"sync/atomic"

	"rpq/internal/label"
)

// Edge is one outgoing edge: the dense id of its edge label within the
// graph (see Graph.Label) and the target vertex. It holds no pointer, so
// an adjacency list is never scanned by the garbage collector.
type Edge struct {
	LabelID int32
	To      int32
}

// Graph is an edge-labeled directed graph with interned vertex names and
// edge labels. The zero value is not usable; construct with New.
type Graph struct {
	// U is the universe of constructor and symbol names shared with the
	// patterns compiled against this graph.
	U *label.Universe

	// verts interns the vertex names. Copies share it (see Clone): a graph
	// reads only its first NumVertices names, and a graph whose table may
	// belong to another (sharedVerts) copies it before interning a name,
	// so what either side adds after the copy never reaches the other.
	verts       *label.Interner
	sharedVerts bool
	adj         [][]Edge
	labels      label.Slab
	numEdges    int
	start       int32
	// rec is the scratch record AddEdge and AddVertexLabel encode into.
	rec label.Ground

	// index is the label index, built on first read (see LabelIndex).
	index atomic.Pointer[LabelIndex]
}

// New returns an empty graph over a fresh universe.
func New() *Graph { return NewIn(label.NewUniverse()) }

// NewIn returns an empty graph over an existing universe.
func NewIn(u *label.Universe) *Graph {
	return &Graph{U: u, verts: &label.Interner{}, start: -1}
}

// Vertex interns a vertex name and returns its id.
func (g *Graph) Vertex(name string) int32 {
	if g.sharedVerts {
		if v, ok := g.LookupVertex(name); ok {
			return v
		}
		own := &label.Interner{}
		for _, n := range g.verts.Names()[:len(g.adj)] {
			own.Intern(n)
		}
		g.verts, g.sharedVerts = own, false
	}
	v := g.verts.Intern(name)
	if int(v) == len(g.adj) {
		g.adj = append(g.adj, nil)
	}
	return v
}

// LookupVertex returns the id of name if present.
func (g *Graph) LookupVertex(name string) (int32, bool) {
	if v, ok := g.verts.Lookup(name); ok && int(v) < len(g.adj) {
		return v, true
	}
	return 0, false
}

// VertexName returns the name of vertex v.
func (g *Graph) VertexName(v int32) string { return g.verts.Names()[:len(g.adj)][v] }

// NumVertices reports the number of vertices ("verts" in Figure 2).
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges reports the number of edges, |G| in the complexity formulas.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels reports the number of distinct edge labels ("edgelabels").
func (g *Graph) NumLabels() int { return g.labels.Len() }

// Labels returns the records of the distinct edge labels in label-id
// order: a fresh slice of views into the graph's slab, which callers must
// not modify.
func (g *Graph) Labels() []label.Ground {
	out := make([]label.Ground, g.NumLabels())
	for id := range out {
		out[id] = g.labels.Label(int32(id))
	}
	return out
}

// Label returns the record of the edge label with the given id.
func (g *Graph) Label(id int32) label.Ground { return g.labels.Label(id) }

// SetStart sets the distinguished start vertex v0.
func (g *Graph) SetStart(v int32) { g.start = v }

// Start returns the start vertex, or -1 if unset.
func (g *Graph) Start() int32 { return g.start }

// InternLabel interns the ground label with record rec (its names already
// interned in g.U), returning its dense id. The slab keeps a copy, so rec
// may be reused.
func (g *Graph) InternLabel(rec label.Ground) int32 { return g.labels.Intern(rec) }

// AddEdgeID adds an edge whose label is already interned under id.
func (g *Graph) AddEdgeID(from, id, to int32) {
	g.adj[from] = append(g.adj[from], Edge{LabelID: id, To: to})
	g.numEdges++
}

// Grow reserves room for vertices more vertices and labels more distinct
// labels, so a builder that knows its totals fills the vertex table, the
// adjacency and the label slab's table of ids without regrowing them. The
// vertex name index is presized only while empty.
func (g *Graph) Grow(vertices, labels int) {
	g.adj = slices.Grow(g.adj, vertices)
	if !g.sharedVerts {
		g.verts.Grow(vertices)
	}
	g.labels.Grow(labels)
}

// AddEdge interns the ground term lbl (and its names, in g.U) and adds the
// edge.
func (g *Graph) AddEdge(from int32, lbl *label.Term, to int32) error {
	rec, err := label.AppendGround(g.rec[:0], lbl, g.U)
	g.rec = rec
	if err != nil {
		return err
	}
	g.AddEdgeID(from, g.InternLabel(rec), to)
	return nil
}

// AddEdgeStr parses lbl as a ground label and adds an edge between named
// vertices, interning them as needed.
func (g *Graph) AddEdgeStr(from, lbl, to string) error {
	t, err := label.Parse(lbl, label.GroundMode)
	if err != nil {
		return err
	}
	return g.AddEdge(g.Vertex(from), t, g.Vertex(to))
}

// MustAddEdgeStr is AddEdgeStr that panics on error.
func (g *Graph) MustAddEdgeStr(from, lbl, to string) {
	if err := g.AddEdgeStr(from, lbl, to); err != nil {
		panic(err)
	}
}

// Out returns the outgoing edges of v. The slice is owned by the graph;
// callers must not mutate it. After construction it is immutable, so
// concurrent readers need no synchronization (see the package comment).
func (g *Graph) Out(v int32) []Edge { return g.adj[v] }

// AddVertexLabel attaches a label to a vertex as a self-loop edge — the
// encoding Section 5.4 of the paper points at for queries that consult
// vertices directly ("queries can use also vertices and vertex labels"),
// and the one its own LTS transformation uses (state(v) self-loops,
// Section 2.3). Self-loop labels can be read by a query any number of
// times without advancing along the path; for universal queries prefer the
// splitting transformation (see package lts), since a self-loop also
// creates paths that skip the label.
func (g *Graph) AddVertexLabel(v int32, lbl *label.Term) error {
	return g.AddEdge(v, lbl, v)
}

// AddVertexLabelStr parses lbl as a ground label and attaches it to the
// named vertex.
func (g *Graph) AddVertexLabelStr(vertex, lbl string) error {
	t, err := label.Parse(lbl, label.GroundMode)
	if err != nil {
		return err
	}
	return g.AddVertexLabel(g.Vertex(vertex), t)
}

// Reverse returns the graph with every edge reversed, sharing the universe
// and the vertex table. The paper evaluates backward queries by reversing
// all edges before the query (Section 2.2). Only the edges are copied;
// the original is only read, apart from building its label index once,
// so concurrent Reverse calls on a built graph are safe. The reverse
// shares the receiver's label index when it carries every label; a label
// interned without an edge does not survive, and a reverse without it
// gets an index of its own.
func (g *Graph) Reverse() *Graph {
	r := g.edgeless(g.U)
	ids := newLabelMap(r, g)
	for v, es := range g.adj {
		for _, e := range es {
			r.AddEdgeID(e.To, ids.of(e.LabelID), int32(v))
		}
	}
	if r.NumLabels() == g.NumLabels() {
		r.index.Store(g.LabelIndex())
	}
	return r
}

// labelMap maps the label ids of src to those of dst, interning each
// label of src into dst on first use, so a copy numbers its labels in the
// order its edges first reach them.
type labelMap struct {
	dst, src *Graph
	ids      []int32 // src id -> 1 + g id, 0 = not yet interned
}

func newLabelMap(dst, src *Graph) labelMap {
	return labelMap{dst: dst, src: src, ids: make([]int32, src.NumLabels())}
}

func (m labelMap) of(id int32) int32 {
	if m.ids[id] == 0 {
		m.ids[id] = m.dst.InternLabel(m.src.Label(id)) + 1
	}
	return m.ids[id] - 1
}

// Clone returns a copy of the graph over an overlay of its universe (see
// label.Universe.Overlay), with the same vertex, label and universe ids,
// so that edges added to the copy are numbered as on the original but
// never reach it. Edge storage, the vertex table and the universe's names
// are shared: edges are clipped so that the copy's first append to a
// vertex reallocates, and a vertex or name added to either graph
// afterwards stays out of the other (see the package comment).
func (g *Graph) Clone() *Graph {
	u := g.U.Overlay()
	c := g.edgeless(&u)
	for v, es := range g.adj {
		c.adj[v] = slices.Clip(es)
	}
	c.labels = g.labels.Clone()
	c.numEdges = g.numEdges
	return c
}

// edgeless returns an edgeless graph over u sharing g's vertex table and
// start vertex. It writes nothing to g.
func (g *Graph) edgeless(u *label.Universe) *Graph {
	return &Graph{U: u, verts: g.verts, sharedVerts: true, adj: make([][]Edge, len(g.adj)), start: g.start}
}

// Reachable returns the set of vertices reachable from v0 (including v0).
func (g *Graph) Reachable(v0 int32) []bool {
	seen := make([]bool, g.NumVertices())
	seen[v0] = true
	stack := []int32{v0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// MaxOutDegree returns the largest out-degree, a determinant of
// precomputation's benefit (Section 6).
func (g *Graph) MaxOutDegree() int {
	m := 0
	for _, es := range g.adj {
		if len(es) > m {
			m = len(es)
		}
	}
	return m
}
