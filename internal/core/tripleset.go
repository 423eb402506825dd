package core

import (
	"fmt"

	"rpq/internal/subst"
)

// triple is a worklist/reach-set element ⟨v, s, θ⟩ with the substitution
// interned to a key. In universal runs s may be the badstate (== numStates)
// and th may be badSubstKey.
type triple struct {
	v  int32
	s  int32
	th int32
}

// badSubstKey marks badsubst in universal reach triples.
const badSubstKey int32 = -1

// tripleSet is the set R ∪ W of triples already discovered; Add reports
// whether the triple was new. The two implementations mirror the paper's
// Table 3 data-structure comparison: hashing vs. nested arrays, both "based"
// on the (v, s) pair (the first keys locate a base; remaining keys index
// into it).
type tripleSet interface {
	Add(t triple) bool
	Len() int
	Bytes() int64
	// Release drops the storage of all triples at vertex v (used by
	// SCC-ordered processing to free finished components). It reduces
	// Bytes but not Len.
	Release(v int32)
}

// maxDenseBase bounds the dense (v, s) base-array element count. Beyond it
// the pair arithmetic the solvers rely on (and any practical allocation)
// breaks down, so the constructors report the capacity explicitly instead
// of overflowing.
const maxDenseBase = int64(1) << 31

// checkDenseBase validates a |V|·|S| dense base size against maxDenseBase.
func checkDenseBase(verts, states int) error {
	if n := int64(verts) * int64(states); n > maxDenseBase {
		return fmt.Errorf("core: |V|·|S| = %d×%d = %d exceeds the dense base capacity %d: %w",
			verts, states, n, maxDenseBase, subst.ErrCapacity)
	}
	return nil
}

// newTripleSet builds a set for v in [0, verts) and s in [0, states); pass
// states+1 for universal runs so the badstate fits. It returns an error
// wrapping subst.ErrCapacity when |V|·|S| exceeds the representable dense
// base size.
func newTripleSet(kind subst.TableKind, verts, states int) (tripleSet, error) {
	if err := checkDenseBase(verts, states); err != nil {
		return nil, err
	}
	switch kind {
	case subst.Hash:
		return &hashTripleSet{base: make([]int32, verts*states), states: states}, nil
	case subst.Nested:
		return &nestedTripleSet{base: make([][]bool, verts*states), states: states}, nil
	}
	panic("core: unknown table kind")
}

// hashTripleSet keys a hash set of substitution keys off the dense (v, s)
// base — the "based hash representation" the paper found best overall.
// Most bases hold a single key, so a base entry stores that key inline
// (key+2, so 0 marks an empty base and badSubstKey is storable); a base
// that gets a second key moves its keys to a keySet in slab, and the entry
// becomes -(slab index+1). Bytes models each base as a Go map (48 bytes
// plus 16 per key) so that Table 3's figures do not depend on the
// physical layout.
type hashTripleSet struct {
	base   []int32
	slab   []keySet
	free   []int32 // slab indices released for reuse
	states int
	n      int
	bytes  int64
}

func (h *hashTripleSet) Add(t triple) bool {
	e := &h.base[int(t.v)*h.states+int(t.s)]
	x := t.th + 2
	switch {
	case *e == 0:
		*e = x
		h.bytes += 48
	case *e == x:
		return false
	case *e > 0:
		ks := newKeySet()
		ks.add(*e - 2)
		ks.add(t.th)
		*e = -1 - h.store(ks)
	case !h.slab[-1-*e].add(t.th):
		return false
	}
	h.n++
	h.bytes += 16
	return true
}

// store puts ks in a free slab slot and returns its index.
func (h *hashTripleSet) store(ks keySet) int32 {
	if n := len(h.free); n > 0 {
		i := h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[i] = ks
		return i
	}
	h.slab = append(h.slab, ks)
	return int32(len(h.slab) - 1)
}

func (h *hashTripleSet) Len() int     { return h.n }
func (h *hashTripleSet) Bytes() int64 { return int64(len(h.base))*8 + h.bytes }

func (h *hashTripleSet) Release(v int32) {
	for s := 0; s < h.states; s++ {
		e := &h.base[int(v)*h.states+s]
		switch {
		case *e > 0:
			h.bytes -= 48 + 16
		case *e < 0:
			i := -1 - *e
			h.bytes -= 48 + 16*int64(h.slab[i].len())
			h.slab[i] = nil
			h.free = append(h.free, i)
		}
		*e = 0
	}
}

// keySet is one base's set of substitution keys, an open-addressed table
// with linear probing. Slot 0 holds the element count; slots 1..cap (cap a
// power of two) hold key+2, so 0 marks an empty slot and badSubstKey (-1)
// is storable. The table doubles when an insert would pass 3/4 load.
type keySet []int32

const keySetInitCap = 4

func newKeySet() keySet { return make(keySet, 1+keySetInitCap) }

func (ks keySet) len() int { return int(ks[0]) }

// add inserts key k, reporting whether it was new.
func (ks *keySet) add(k int32) bool {
	x := k + 2
	slots := (*ks)[1:]
	mask := uint32(len(slots) - 1)
	for i := keySetHash(x) & mask; ; i = (i + 1) & mask {
		switch slots[i] {
		case x:
			return false
		case 0:
			if 4*((*ks)[0]+1) > 3*int32(len(slots)) {
				*ks = ks.grow()
				ks.insert(x)
			} else {
				slots[i] = x
			}
			(*ks)[0]++
			return true
		}
	}
}

// grow returns a copy of ks with twice the slots, count preserved.
func (ks keySet) grow() keySet {
	out := make(keySet, 1+2*(len(ks)-1))
	out[0] = ks[0]
	for _, x := range ks[1:] {
		if x != 0 {
			out.insert(x)
		}
	}
	return out
}

// insert places stored value x (key+2, known absent) without touching the
// count.
func (ks keySet) insert(x int32) {
	slots := ks[1:]
	mask := uint32(len(slots) - 1)
	i := keySetHash(x) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = x
}

// keySetHash spreads dense substitution keys across the table's low bits.
func keySetHash(x int32) uint32 {
	h := uint32(x) * 0x9E3779B9
	return h ^ h>>16
}

// nestedTripleSet uses nested arrays: base (v, s) → boolean array indexed by
// substitution key. Fast when dense, but sparse bases each hold an array as
// long as the substitution-key range — the space blow-up Table 3 measures.
type nestedTripleSet struct {
	base   [][]bool
	states int
	n      int
	bytes  int64
}

func (t *nestedTripleSet) Add(tr triple) bool {
	idx := int(tr.v)*t.states + int(tr.s)
	row := t.base[idx]
	k := int(tr.th) + 1 // shift so badSubstKey (-1) maps to slot 0
	if k >= len(row) {
		grown := make([]bool, max(k+1, 2*len(row)+8))
		copy(grown, row)
		t.bytes += int64(len(grown) - len(row))
		row = grown
		t.base[idx] = row
	}
	if row[k] {
		return false
	}
	row[k] = true
	t.n++
	return true
}

func (t *nestedTripleSet) Len() int     { return t.n }
func (t *nestedTripleSet) Bytes() int64 { return int64(len(t.base))*24 + t.bytes }

func (t *nestedTripleSet) Release(v int32) {
	for s := 0; s < t.states; s++ {
		idx := int(v)*t.states + s
		if row := t.base[idx]; row != nil {
			t.bytes -= int64(len(row))
			t.base[idx] = nil
		}
	}
}
