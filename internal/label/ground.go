package label

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Ground is the flat record of one ground edge label: its nodes in
// preorder, an application as its constructor key followed by its arity,
// a symbol as the one word ^key (negative, so the two never collide).
// f(g(a),b) is [f 2 g 1 ^a ^b]. A record holds no pointers, so a graph's
// labels cost the garbage collector nothing to scan.
type Ground []int32

// App appends an application of constructor ctor to n arguments, whose
// nodes the caller appends next.
func (r Ground) App(ctor int32, n int) Ground { return append(r, ctor, int32(n)) }

// Sym appends the symbol sym.
func (r Ground) Sym(sym int32) Ground { return append(r, ^sym) }

// Node decodes the node at offset i: for a symbol, KSym, its key and 0
// arguments; for an application, KApp, its constructor key and arity.
// next is the offset just past the node's own words, where its first
// argument (or the following node) starts.
func (r Ground) Node(i int) (k Kind, key int32, arity int, next int) {
	if w := r[i]; w < 0 {
		return KSym, ^w, 0, i + 1
	}
	return KApp, r[i], int(r[i+1]), i + 2
}

// Skip returns the offset just past the subtree that starts at i.
func (r Ground) Skip(i int) int {
	for pending := 1; pending > 0; pending-- {
		if r[i] < 0 {
			i++
			continue
		}
		pending += int(r[i+1])
		i += 2
	}
	return i
}

// Key returns the label's canonical key, the Key of the same term
// compiled as a CTerm: two labels over one universe have equal keys iff
// their records are equal.
func (r Ground) Key() string {
	var b strings.Builder
	r.writeKey(&b, 0)
	return b.String()
}

func (r Ground) writeKey(b *strings.Builder, i int) int {
	k, key, n, i := r.Node(i)
	if k == KSym {
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(key)))
		return i
	}
	b.WriteByte('a')
	b.WriteString(strconv.Itoa(int(key)))
	b.WriteByte('(')
	for a := range n {
		if a > 0 {
			b.WriteByte(',')
		}
		i = r.writeKey(b, i)
	}
	b.WriteByte(')')
	return i
}

// Format renders the label with names resolved against u, as CTerm.Format
// renders the same term: numeric symbols bare, other symbols quoted.
func (r Ground) Format(u *Universe) string {
	var b strings.Builder
	r.format(&b, 0, u, true)
	return b.String()
}

// FormatBare is Format with every symbol unquoted.
func (r Ground) FormatBare(u *Universe) string {
	var b strings.Builder
	r.format(&b, 0, u, false)
	return b.String()
}

func (r Ground) format(b *strings.Builder, i int, u *Universe, quote bool) int {
	k, key, n, i := r.Node(i)
	if k == KSym {
		if name := u.Syms.Name(key); quote {
			writeSym(b, name, true)
		} else {
			b.WriteString(name)
		}
		return i
	}
	b.WriteString(u.Ctors.Name(key))
	b.WriteByte('(')
	for a := range n {
		if a > 0 {
			b.WriteByte(',')
		}
		i = r.format(b, i, u, quote)
	}
	b.WriteByte(')')
	return i
}

// Pattern returns the label as a compiled transition label: the explicit
// completion of a ground automaton (automata.CompleteExplicit) uses an
// alphabet letter itself as a transition.
func (r Ground) Pattern() *CTerm {
	c, _ := r.pattern(0)
	c.finish()
	return c
}

func (r Ground) pattern(i int) (*CTerm, int) {
	k, key, n, i := r.Node(i)
	c := &CTerm{Kind: k, Ctor: -1, Sym: NoSym, Param: -1}
	if k == KSym {
		c.Sym = key
		return c, i
	}
	c.Ctor, c.Args = key, make([]*CTerm, n)
	for a := range c.Args {
		c.Args[a], i = r.pattern(i)
	}
	return c, i
}

// AppendGround appends the record of the ground term t to r, interning
// its names in u in the order Compile does: a constructor, then its
// arguments left to right. It fails if t is not ground.
func AppendGround(r Ground, t *Term, u *Universe) (Ground, error) {
	if !t.IsGround() {
		return r, fmt.Errorf("label: %s is not ground", t)
	}
	return appendGround(r, t, u), nil
}

func appendGround(r Ground, t *Term, u *Universe) Ground {
	if t.Kind == KSym {
		return r.Sym(u.Syms.Intern(t.Name))
	}
	r = r.App(u.Ctors.Intern(t.Name), len(t.Args))
	for _, a := range t.Args {
		r = appendGround(r, a, u)
	}
	return r
}

// Slab stores a graph's distinct ground labels, one record each, back to
// back in one []int32 and numbered densely in first-intern order. Its
// interning index is an open-addressing table of label ids keyed by a
// hash of the record, so no part of a slab holds a pointer. The zero
// value is an empty slab.
type Slab struct {
	words []int32 // the records, back to back
	ends  []int32 // ends[id] is the offset just past record id
	index []int32 // 0 free, else 1 + label id; a power of two, under half full
}

// Len reports the number of distinct labels.
func (s *Slab) Len() int { return len(s.ends) }

// Label returns the record of label id, capped so that an append by the
// caller cannot write into the slab.
func (s *Slab) Label(id int32) Ground {
	lo := int32(0)
	if id > 0 {
		lo = s.ends[id-1]
	}
	hi := s.ends[id]
	return Ground(s.words[lo:hi:hi])
}

// Intern returns the id of the label with record r, appending a copy of
// r if the slab lacks it.
func (s *Slab) Intern(r Ground) int32 {
	if 2*(len(s.ends)+1) > len(s.index) {
		s.rehash(max(16, 2*len(s.index)))
	}
	slot := s.probe(r)
	if k := s.index[slot]; k != 0 {
		return k - 1
	}
	id := int32(len(s.ends))
	s.words = append(s.words, r...)
	s.ends = append(s.ends, int32(len(s.words)))
	s.index[slot] = id + 1
	return id
}

// Grow reserves room for labels more labels.
func (s *Slab) Grow(labels int) {
	s.ends = slices.Grow(s.ends, labels)
	if n := 2 * (len(s.ends) + labels); n > len(s.index) {
		size := 16
		for size < n {
			size *= 2
		}
		s.rehash(size)
	}
}

// Clone returns an independent copy of the slab.
func (s *Slab) Clone() Slab {
	return Slab{words: slices.Clone(s.words), ends: slices.Clone(s.ends), index: slices.Clone(s.index)}
}

// probe returns the index slot holding r's id, or the free slot where it
// belongs.
func (s *Slab) probe(r Ground) int {
	mask := len(s.index) - 1
	for i := int(hashGround(r)) & mask; ; i = (i + 1) & mask {
		k := s.index[i]
		if k == 0 || slices.Equal(s.Label(k-1), r) {
			return i
		}
	}
}

// rehash rebuilds the index with size slots.
func (s *Slab) rehash(size int) {
	s.index = make([]int32, size)
	mask := size - 1
	for id := range s.ends {
		i := int(hashGround(s.Label(int32(id)))) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = int32(id) + 1
	}
}

// hashGround mixes the words of a record (SplitMix64's finalizer per word).
func hashGround(r Ground) uint64 {
	h := uint64(len(r))
	for _, w := range r {
		h ^= uint64(uint32(w))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}
