package core

import (
	"strings"
	"testing"

	"rpq/internal/graph"
	"rpq/internal/pattern"
)

func TestEstimateQuantities(t *testing.T) {
	g := graph.MustReadString(figure1)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	e := EstimateQuery(q, g, DomainsRefined)
	if e.Verts != 7 || e.GraphEdges != 7 || e.EdgeLabels != 5 {
		t.Errorf("graph quantities: %+v", e)
	}
	if e.Pars != 1 || e.LabelPars != 1 || e.TransLabels != 2 {
		t.Errorf("pattern quantities: %+v", e)
	}
	// Refined domain of x: the used variables a, b, c.
	if len(e.DomainSizes) != 1 || e.DomainSizes[0] != 3 || e.SubstsBound != 3 {
		t.Errorf("domains: %+v", e)
	}
	all := EstimateQuery(q, g, DomainsAllSymbols)
	if all.SubstsBound < e.SubstsBound {
		t.Errorf("all-symbols bound below refined: %v < %v", all.SubstsBound, e.SubstsBound)
	}
	if e.BasicTimeBound <= 0 || e.MemoTimeBound <= 0 || e.EnumTimeBound <= 0 {
		t.Errorf("bounds: %+v", e)
	}
	// Memoization's bound is never above basic's on these inputs.
	if e.MemoTimeBound > e.BasicTimeBound {
		t.Errorf("memo bound %v above basic %v", e.MemoTimeBound, e.BasicTimeBound)
	}
	if s := e.String(); !strings.Contains(s, "time bounds") {
		t.Errorf("String() = %q", s)
	}
}
