package graph

import "rpq/internal/label"

// CompactFor returns a copy of the graph containing only the edges whose
// labels some transition label of the query could possibly match — the
// sparsity compaction of Section 5.3. It shares the universe and the vertex
// table, so vertex ids are preserved; only the kept edges are copied.
//
// Soundness: an edge no transition label can match (under any substitution)
// can never be traversed by a matching path, so removing it does not change
// the result of an EXISTENTIAL query. It does change universal queries
// (which quantify over all paths), so the solver only applies compaction to
// existential ones.
//
// The relevance test is conservative: AD-compatible labels use the
// agree/disagree matcher's satisfiability; labels outside that fragment make
// every edge relevant.
func (g *Graph) CompactFor(translabels []*label.CTerm) *Graph {
	relevant := func(el label.Ground) bool {
		for _, tl := range translabels {
			if !tl.ADCompatible() {
				return true
			}
			if label.MatchAD(tl, el).OK {
				return true
			}
		}
		return false
	}
	keep := make([]bool, g.NumLabels())
	for id := range keep {
		keep[id] = relevant(g.Label(int32(id)))
	}
	out := g.edgeless(g.U)
	ids := newLabelMap(out, g)
	for v, es := range g.adj {
		for _, e := range es {
			if keep[e.LabelID] {
				out.AddEdgeID(int32(v), ids.of(e.LabelID), e.To)
			}
		}
	}
	return out
}
