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
// original while one of its copies is read concurrently is a data race.
// Clone and CompactFor build their own label index on first read; Reverse
// shares its receiver's (see Reverse).
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"rpq/internal/label"
)

// Edge is one outgoing edge: the edge label (ground term), its dense label
// id within the graph, and the target vertex.
type Edge struct {
	Label   *label.CTerm
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
	labels      []*label.CTerm
	labelIDs    map[string]int32
	numEdges    int
	start       int32

	// index is the label index, built on first read (see LabelIndex).
	index atomic.Pointer[LabelIndex]
}

// New returns an empty graph over a fresh universe.
func New() *Graph { return NewIn(label.NewUniverse()) }

// NewIn returns an empty graph over an existing universe.
func NewIn(u *label.Universe) *Graph {
	return &Graph{U: u, verts: &label.Interner{}, labelIDs: map[string]int32{}, start: -1}
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
func (g *Graph) NumLabels() int { return len(g.labels) }

// Labels returns the distinct edge labels in label-id order. The slice is
// owned by the graph.
func (g *Graph) Labels() []*label.CTerm { return g.labels }

// Label returns the edge label with the given id.
func (g *Graph) Label(id int32) *label.CTerm { return g.labels[id] }

// SetStart sets the distinguished start vertex v0.
func (g *Graph) SetStart(v int32) { g.start = v }

// Start returns the start vertex, or -1 if unset.
func (g *Graph) Start() int32 { return g.start }

// InternLabel interns a compiled ground label, returning its dense id.
func (g *Graph) InternLabel(c *label.CTerm) int32 {
	if id, ok := g.labelIDs[c.Key()]; ok {
		return id
	}
	id := int32(len(g.labels))
	g.labelIDs[c.Key()] = id
	g.labels = append(g.labels, c)
	return id
}

// AddEdgeC adds an edge with an already compiled ground label. The edge
// points at the graph's interned copy of the label, so every edge with one
// label id shares one tree.
func (g *Graph) AddEdgeC(from int32, c *label.CTerm, to int32) {
	if !c.IsGround() {
		panic(fmt.Sprintf("graph: edge label %s is not ground", c))
	}
	g.AddEdgeID(from, g.InternLabel(c), to)
}

// AddEdgeID adds an edge whose label is already interned under id.
func (g *Graph) AddEdgeID(from, id, to int32) {
	g.adj[from] = append(g.adj[from], Edge{Label: g.labels[id], LabelID: id, To: to})
	g.numEdges++
}

// Grow reserves room for vertices more vertices and labels more distinct
// labels, so a builder that knows its totals fills the vertex table, the
// adjacency and the label table without regrowing them. Name and label
// indexes are presized only while empty.
func (g *Graph) Grow(vertices, labels int) {
	g.adj = slices.Grow(g.adj, vertices)
	if !g.sharedVerts {
		g.verts.Grow(vertices)
	}
	g.labels = slices.Grow(g.labels, labels)
	if len(g.labelIDs) == 0 {
		g.labelIDs = make(map[string]int32, labels)
	}
}

// AddEdge compiles the ground term lbl against the graph's universe and adds
// the edge.
func (g *Graph) AddEdge(from int32, lbl *label.Term, to int32) error {
	c, err := label.CompileGround(lbl, g.U)
	if err != nil {
		return err
	}
	g.AddEdgeC(from, c, to)
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
	c, err := label.CompileGround(lbl, g.U)
	if err != nil {
		return err
	}
	g.AddEdgeC(v, c, v)
	return nil
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
	for v, es := range g.adj {
		for _, e := range es {
			r.AddEdgeC(e.To, e.Label, int32(v))
		}
	}
	if len(r.labels) == len(g.labels) {
		r.index.Store(g.LabelIndex())
	}
	return r
}

// Clone returns a copy of the graph over a copy of its universe, with the
// same vertex, label and universe ids, so that edges added to the copy are
// numbered as on the original but never reach it. Edge storage and the
// vertex table are shared: edges are clipped so that the copy's first
// append to a vertex reallocates, and a vertex added to either graph
// afterwards stays out of the other (see the package comment).
func (g *Graph) Clone() *Graph {
	u := label.NewUniverse()
	u.Ctors.Grow(g.U.Ctors.Len())
	u.Syms.Grow(g.U.Syms.Len())
	for _, n := range g.U.Ctors.Names() {
		u.Ctors.Intern(n)
	}
	for _, n := range g.U.Syms.Names() {
		u.Syms.Intern(n)
	}
	c := g.edgeless(u)
	for v, es := range g.adj {
		c.adj[v] = slices.Clip(es)
	}
	c.labels, c.labelIDs = slices.Clone(g.labels), maps.Clone(g.labelIDs)
	c.numEdges = g.numEdges
	return c
}

// edgeless returns an edgeless graph over u sharing g's vertex table and
// start vertex. It writes nothing to g.
func (g *Graph) edgeless(u *label.Universe) *Graph {
	return &Graph{U: u, verts: g.verts, sharedVerts: true, adj: make([][]Edge, len(g.adj)),
		labelIDs: map[string]int32{}, start: g.start}
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
