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
func buildLabelIndex(labels *label.Slab) *LabelIndex {
	ix := &LabelIndex{labels: labels.Len()}
	var width []int32 // per constructor: 1 + its largest arity
	n := 0
	for id := range labels.Len() {
		r := labels.Label(int32(id))
		size := 0
		for i := 0; i < len(r); size++ {
			k, ctor, arity, next := r.Node(i)
			if k == label.KApp {
				if w := int(ctor) + 1; w > len(width) {
					width = append(width, make([]int32, w-len(width))...)
				}
				width[ctor] = max(width[ctor], int32(arity)+1)
			}
			i = next
		}
		ix.maxSize = max(ix.maxSize, size)
		n += size // at most one pair per node
	}
	ix.first = make([]int32, len(width)+1)
	for c, w := range width {
		ix.first[c+1] = ix.first[c] + w
	}

	pairs := make([]uint64, 0, n)
	pack := func(slot int32, v int32) uint64 { return uint64(slot)<<32 | uint64(uint32(v)) }
	// walk files the application at offset i of r and returns the offset
	// just past its subtree.
	var walk func(r label.Ground, i int) int
	walk = func(r label.Ground, i int) int {
		_, ctor, arity, i := r.Node(i)
		slot := ix.first[ctor]
		pairs = append(pairs, pack(slot, int32(arity)))
		for a := range arity {
			if k, sym, _, next := r.Node(i); k == label.KSym {
				pairs = append(pairs, pack(slot+1+int32(a), sym))
				i = next
			} else {
				i = walk(r, i)
			}
		}
		return i
	}
	for id := range labels.Len() {
		r := labels.Label(int32(id))
		if k, _, _, _ := r.Node(0); k == label.KApp {
			walk(r, 0)
		}
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
	if ix := g.index.Load(); ix != nil && ix.labels == g.NumLabels() {
		return ix
	}
	ix := buildLabelIndex(&g.labels)
	g.index.Store(ix)
	return ix
}
