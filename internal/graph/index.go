package graph

import (
	"slices"

	"rpq/internal/label"
)

// LabelIndex summarizes the shape of a graph's distinct edge labels for
// the readers that need only that: parameter-domain refinement (Section
// 5.3: the symbols at each constructor argument position), the cost
// model's labelsize (Figure 2) and lint's alphabet checks (the arities
// each constructor occurs with). A graph builds it once, on the first
// read after its last new label (see Graph.LabelIndex), and it is
// immutable afterwards, so any number of goroutines may read it.
type LabelIndex struct {
	labels int // graph labels the index was built from

	// Each constructor c owns the slots first[c] to first[c+1]-1: the
	// first holds its arities, the next ones the symbols at each argument
	// position up to its widest application. Slot s owns the sorted
	// distinct values vals[start[s]:start[s+1]].
	first   []int32
	start   []int32
	vals    []int32
	maxSize int
}

// buildLabelIndex files one (slot, value) pair per constructor
// application (its arity) and per symbol argument of every label, nested
// applications included, and groups them with one sort. A slot stands for
// a (constructor, argument index) position, numbered in that order, so
// packing the slot above the value sorts the pairs by constructor,
// argument and value at once.
func buildLabelIndex(labels []*label.CTerm) *LabelIndex {
	ix := &LabelIndex{labels: len(labels)}
	var width []int32 // per constructor: 1 + its largest arity
	var measure func(c *label.CTerm)
	measure = func(c *label.CTerm) {
		if c.Kind != label.KApp {
			return
		}
		if n := int(c.Ctor) + 1; n > len(width) {
			width = append(width, make([]int32, n-len(width))...)
		}
		width[c.Ctor] = max(width[c.Ctor], int32(len(c.Args))+1)
		for _, a := range c.Args {
			measure(a)
		}
	}
	n := 0
	for _, c := range labels {
		ix.maxSize = max(ix.maxSize, c.Size())
		n += c.Size() // at most one pair per node
		measure(c)
	}
	ix.first = make([]int32, len(width)+1)
	for c, w := range width {
		ix.first[c+1] = ix.first[c] + w
	}

	pairs := make([]uint64, 0, n)
	pack := func(slot int32, v int32) uint64 { return uint64(slot)<<32 | uint64(uint32(v)) }
	var walk func(c *label.CTerm)
	walk = func(c *label.CTerm) {
		if c.Kind != label.KApp {
			return
		}
		slot := ix.first[c.Ctor]
		pairs = append(pairs, pack(slot, int32(len(c.Args))))
		for i, a := range c.Args {
			switch a.Kind {
			case label.KSym:
				pairs = append(pairs, pack(slot+1+int32(i), a.Sym))
			case label.KApp:
				walk(a)
			}
		}
	}
	for _, c := range labels {
		walk(c)
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	ix.vals = make([]int32, len(pairs))
	ix.start = make([]int32, ix.first[len(width)]+1)
	for i, p := range pairs {
		ix.vals[i] = int32(uint32(p))
		ix.start[p>>32+1]++
	}
	for s := 1; s < len(ix.start); s++ {
		ix.start[s] += ix.start[s-1]
	}
	return ix
}

// slot returns the values in slot k of constructor ctor, capped so that
// an append by the caller cannot write into the index.
func (ix *LabelIndex) slot(ctor int32, k int) []int32 {
	if ctor < 0 || int(ctor) >= len(ix.first)-1 || k < 0 || k >= int(ix.first[ctor+1]-ix.first[ctor]) {
		return nil
	}
	s := ix.first[ctor] + int32(k)
	lo, hi := ix.start[s], ix.start[s+1]
	return ix.vals[lo:hi:hi]
}

// Symbols returns the sorted distinct symbols that occur as argument arg
// of constructor ctor anywhere in the graph's labels, nested applications
// included. The slice is owned by the index; callers must not modify it.
func (ix *LabelIndex) Symbols(ctor int32, arg int) []int32 {
	if arg < 0 {
		return nil
	}
	return ix.slot(ctor, arg+1)
}

// Arities returns the sorted distinct arities constructor ctor occurs
// with in the graph's labels, or nil if it occurs in none. The slice is
// owned by the index; callers must not modify it.
func (ix *LabelIndex) Arities(ctor int32) []int32 { return ix.slot(ctor, 0) }

// MaxLabelSize returns the largest label size, the graph's share of the
// labelsize quantity of Figure 2 (0 for a graph without labels).
func (ix *LabelIndex) MaxLabelSize() int { return ix.maxSize }

// LabelIndex returns the index of the graph's distinct labels, building it
// on the first call after the graph last gained a label. Safe for
// concurrent readers of a built graph: racing first callers may each
// build an index, and any of the identical results is kept.
func (g *Graph) LabelIndex() *LabelIndex {
	if ix := g.index.Load(); ix != nil && ix.labels == len(g.labels) {
		return ix
	}
	ix := buildLabelIndex(g.labels)
	g.index.Store(ix)
	return ix
}
