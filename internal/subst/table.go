package subst

import (
	"errors"
	"fmt"
	"math"
)

// ErrCapacity reports that a table or set cannot be built (or grown) without
// overflowing its int32 key space. Callers detect it with errors.Is.
var ErrCapacity = errors.New("int32 key capacity exceeded")

// TableKind selects the representation used to intern substitutions (and, in
// the solver, the reach set and auxiliary maps). The paper's Table 3
// compares the two: hashing uses less space with similar time; nested arrays
// are fast when dense but waste space on sparse sets.
type TableKind int

const (
	// Hash uses hash tables keyed on the substitution's values.
	Hash TableKind = iota
	// Nested uses nested arrays (a trie over symbol keys, one level per
	// parameter), the "based" representation of Schonberg et al. as used in
	// the paper.
	Nested
)

func (k TableKind) String() string {
	switch k {
	case Hash:
		return "hashing"
	case Nested:
		return "nested"
	}
	return fmt.Sprintf("TableKind(%d)", int(k))
}

// Table interns substitutions, assigning dense keys in first-seen order.
// The number of interned substitutions is the "substs" quantity of Figure 2
// (minus the implicit badsubst, which is never stored).
type Table interface {
	// Key interns s (copying it) and returns its key.
	Key(s Subst) int32
	// Lookup returns the key of s without interning.
	Lookup(s Subst) (int32, bool)
	// Get returns the substitution with key k; the result must not be
	// modified.
	Get(k int32) Subst
	// Len reports the number of interned substitutions.
	Len() int
	// Bytes approximates the memory footprint of the table in bytes, for
	// the Table 3 memory comparison.
	Bytes() int64
	// Kind reports the representation.
	Kind() TableKind
}

// NewTable returns an empty table of the given kind for substitutions over
// pars parameters, where symbol keys are expected to be < symbols (the
// nested representation sizes its arrays from this; it grows if exceeded).
// It returns an error wrapping ErrCapacity when the dimensions exceed the
// int32 key space instead of overflowing silently.
func NewTable(kind TableKind, pars, symbols int) (Table, error) {
	if err := checkTableDims(pars, symbols); err != nil {
		return nil, err
	}
	switch kind {
	case Hash:
		return newHashTable(pars), nil
	case Nested:
		return newNestedTable(pars, symbols), nil
	}
	panic(fmt.Sprintf("subst: unknown table kind %d", kind))
}

// checkTableDims validates table dimensions against the int32 key space
// (symbol keys are stored shifted by one in nested nodes, so symbols+1 must
// itself be representable).
func checkTableDims(pars, symbols int) error {
	if pars < 0 || symbols < 0 {
		return fmt.Errorf("subst: negative table dimensions (pars=%d, symbols=%d)", pars, symbols)
	}
	if int64(symbols)+1 >= math.MaxInt32 {
		return fmt.Errorf("subst: %d symbols: %w", symbols, ErrCapacity)
	}
	return nil
}

// ---- hash representation ----

// hashTable interns substitutions into one flat value array, pars values
// per key, indexed by an open-addressed table of key+1 slots (0 = empty)
// probed linearly from a hash of the values and confirmed against the
// stored substitution. Neither array holds pointers, and every parameter
// count, zero included, takes the same path.
type hashTable struct {
	pars  int
	n     int32
	vals  []int32 // key k's values are vals[k*pars : (k+1)*pars]
	index []int32 // power-of-two length; key+1, or 0 for an empty slot
	bytes int64
}

// hashTableInitSlots is the index size of an empty table.
const hashTableInitSlots = 16

func newHashTable(pars int) *hashTable {
	return &hashTable{pars: pars, index: make([]int32, hashTableInitSlots)}
}

// hashSubst mixes the values of s into a 64-bit hash.
func hashSubst(s Subst) uint64 {
	h := uint64(len(s))
	for _, v := range s {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// find returns the index slot of s: the slot holding its key, or the empty
// slot where it would be inserted.
func (t *hashTable) find(s Subst) int {
	mask := len(t.index) - 1
	for i := int(hashSubst(s)) & mask; ; i = (i + 1) & mask {
		k := t.index[i]
		if k == 0 || Subst(t.vals[int(k-1)*t.pars:int(k)*t.pars]).Equal(s) {
			return i
		}
	}
}

func (t *hashTable) Key(s Subst) int32 {
	i := t.find(s)
	if k := t.index[i]; k != 0 {
		return k - 1
	}
	id := t.n
	t.n++
	t.vals = append(t.vals, s...)
	t.index[i] = id + 1
	if 2*int(t.n) > len(t.index) {
		t.rehash()
	}
	// Key bytes + map entry overhead + stored substitution + slice header:
	// the Table 3 model of a string-keyed map, kept for comparability.
	t.bytes += int64(len(s))*8 + 72
	return id
}

// rehash doubles the index and reinserts every key.
func (t *hashTable) rehash() {
	t.index = make([]int32, 2*len(t.index))
	mask := len(t.index) - 1
	for k := int32(0); k < t.n; k++ {
		i := int(hashSubst(t.vals[int(k)*t.pars:int(k+1)*t.pars])) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = k + 1
	}
}

func (t *hashTable) Lookup(s Subst) (int32, bool) {
	k := t.index[t.find(s)]
	if k == 0 {
		return 0, false
	}
	return k - 1, true
}

// Get returns a capped subslice of the value array: a later insert appends
// past it or copies the array, and never writes into it.
func (t *hashTable) Get(k int32) Subst {
	lo, hi := int(k)*t.pars, int(k+1)*t.pars
	return t.vals[lo:hi:hi]
}

func (t *hashTable) Len() int        { return int(t.n) }
func (t *hashTable) Bytes() int64    { return t.bytes }
func (t *hashTable) Kind() TableKind { return Hash }

// ---- nested-array (trie) representation ----

// nestedTable stores substitutions in a trie with one level per parameter.
// Each node is an int32 array indexed by symbol key + 1 (index 0 encodes an
// unbound parameter). Interior levels store child node ids + 1; the last
// level stores substitution keys + 1. Zero means absent.
type nestedTable struct {
	pars   int
	width  int
	nodes  [][]int32
	substs []Subst
	bytes  int64
	// empty caches the key of the zero-parameter substitution when pars==0.
	emptyKey int32
}

func newNestedTable(pars, symbols int) *nestedTable {
	t := &nestedTable{pars: pars, width: symbols + 1, emptyKey: -1}
	if pars > 0 {
		t.nodes = append(t.nodes, t.newNode())
	}
	return t
}

func (t *nestedTable) newNode() []int32 {
	t.bytes += int64(t.width)*4 + 24
	return make([]int32, t.width)
}

func (t *nestedTable) slot(node []int32, v int32) ([]int32, int) {
	idx := int(v) + 1
	if idx >= len(node) {
		// A symbol key beyond the initial width; grow the node
		// geometrically so ascending keys amortize to O(n) total copying
		// (growing to exactly idx+1 would make n inserts cost O(n²)).
		n := 2*len(node) + 8
		if idx+1 > n {
			n = idx + 1
		}
		grown := make([]int32, n)
		copy(grown, node)
		t.bytes += int64(n-len(node)) * 4
		return grown, idx
	}
	return node, idx
}

func (t *nestedTable) Key(s Subst) int32 {
	if t.pars == 0 {
		if t.emptyKey < 0 {
			t.emptyKey = 0
			t.substs = append(t.substs, Subst{})
		}
		return t.emptyKey
	}
	cur := int32(0)
	for level := 0; level < t.pars-1; level++ {
		node, idx := t.slot(t.nodes[cur], s[level])
		t.nodes[cur] = node
		if node[idx] == 0 {
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, t.newNode())
			node[idx] = id + 1
		}
		cur = t.nodes[cur][idx] - 1
	}
	node, idx := t.slot(t.nodes[cur], s[t.pars-1])
	t.nodes[cur] = node
	if node[idx] == 0 {
		key := int32(len(t.substs))
		t.substs = append(t.substs, s.Clone())
		t.bytes += int64(len(s)*4) + 24
		node[idx] = key + 1
	}
	return t.nodes[cur][idx] - 1
}

func (t *nestedTable) Lookup(s Subst) (int32, bool) {
	if t.pars == 0 {
		if t.emptyKey < 0 {
			return 0, false
		}
		return t.emptyKey, true
	}
	cur := int32(0)
	for level := 0; level < t.pars; level++ {
		node := t.nodes[cur]
		idx := int(s[level]) + 1
		if idx >= len(node) || node[idx] == 0 {
			return 0, false
		}
		if level == t.pars-1 {
			return node[idx] - 1, true
		}
		cur = node[idx] - 1
	}
	panic("unreachable")
}

func (t *nestedTable) Get(k int32) Subst { return t.substs[k] }
func (t *nestedTable) Len() int          { return len(t.substs) }
func (t *nestedTable) Bytes() int64      { return t.bytes }
func (t *nestedTable) Kind() TableKind   { return Nested }
