package core

import (
	"fmt"
	"math"
	"strings"

	"rpq/internal/graph"
)

// Estimate reports the quantities of the paper's complexity analysis
// (Figure 2) for a query against a graph, together with the worst-case
// running-time formulas of Sections 3 and 4 evaluated on them. Section 5.3
// describes this as the framework's practical payoff: "our complexity
// analysis result corresponds to a formula that gives the worst-case
// asymptotic running time and space usage for evaluating the query", with
// per-parameter domain sizes refining the symbs^pars bound.
type Estimate struct {
	// Figure 2 quantities.
	Verts       int // vertices in G
	States      int // states in P (the NFA)
	DFAStates   int // states after opaque determinization (universal)
	Symbs       int // symbols parameters can be instantiated to
	Pars        int // parameters in P
	LabelSize   int // maximum label size
	EdgeLabels  int // distinct edge labels in G
	TransLabels int // distinct transition labels in P
	LabelPars   int // maximum parameters in one transition label
	GraphEdges  int // |G|
	PatternSize int // |P| (transitions)

	// SubstsBound is the symbs^pars bound on substitutions; with refined
	// domains it is the product of the per-parameter domain sizes
	// (Section 5.3). Saturates at math.MaxInt64.
	SubstsBound float64
	// DomainSizes lists the refined per-parameter domain sizes.
	DomainSizes []int

	// Worst-case time bounds (up to constant factors), evaluated:
	//   basic:  |G| × |P| × substs × (labelsize + pars)
	//   memo:   |G| × |P| × labelsize + |G| × |P| × substs × pars
	//   enum:   |G| × |P| × substs (per-substitution ground passes)
	BasicTimeBound float64
	MemoTimeBound  float64
	EnumTimeBound  float64
}

// EstimateQuery computes the report. The domains mode picks between the
// symbs^pars bound (AllSymbols) and the refined per-domain product.
func EstimateQuery(q *Query, g *graph.Graph, mode DomainMode) Estimate {
	nfa := q.NFA
	e := Estimate{
		Verts:       g.NumVertices(),
		States:      nfa.NumStates,
		Symbs:       g.U.NumSymbols(),
		Pars:        q.Pars(),
		LabelSize:   max(nfa.MaxLabelSize(), g.LabelIndex().MaxLabelSize()),
		EdgeLabels:  g.NumLabels(),
		TransLabels: len(nfa.Labels),
		GraphEdges:  g.NumEdges(),
		PatternSize: nfa.NumTrans(),
	}
	for _, tl := range nfa.Labels {
		if lp := len(tl.Params()); lp > e.LabelPars {
			e.LabelPars = lp
		}
	}
	e.DFAStates = q.DFA().NumStates
	doms := ComputeDomains(q, g, mode)
	e.SubstsBound = 1
	for _, d := range doms {
		e.DomainSizes = append(e.DomainSizes, len(d))
		e.SubstsBound *= float64(len(d))
	}
	if math.IsInf(e.SubstsBound, 0) {
		e.SubstsBound = math.MaxInt64
	}
	ge, pe := float64(e.GraphEdges), float64(e.PatternSize)
	e.BasicTimeBound = ge * pe * (e.SubstsBound + 1) * float64(e.LabelSize+e.Pars)
	e.MemoTimeBound = ge*pe*float64(e.LabelSize) + ge*pe*(e.SubstsBound+1)*float64(e.Pars)
	e.EnumTimeBound = ge * pe * (e.SubstsBound + 1)
	return e
}

// String renders the report.
func (e Estimate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph: %d vertices, %d edges, %d distinct labels, %d symbols\n",
		e.Verts, e.GraphEdges, e.EdgeLabels, e.Symbs)
	fmt.Fprintf(&b, "pattern: %d states, %d transitions, %d distinct labels, labelsize %d\n",
		e.States, e.PatternSize, e.TransLabels, e.LabelSize)
	fmt.Fprintf(&b, "parameters: %d (max %d per label), domain sizes %v, substs ≤ %.3g\n",
		e.Pars, e.LabelPars, e.DomainSizes, e.SubstsBound)
	fmt.Fprintf(&b, "time bounds: basic %.3g, memoized %.3g, enumeration %.3g\n",
		e.BasicTimeBound, e.MemoTimeBound, e.EnumTimeBound)
	return b.String()
}
