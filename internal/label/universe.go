// Package label implements edge labels and transition labels for parametric
// regular path queries: constructor terms over symbols, parameters,
// wildcards, and negations, together with interning and the match operation
// of Liu et al., "Parametric Regular Path Queries" (PLDI 2004), Section 2.4
// and Section 3.
//
// An edge label is a ground term: a constructor applied to zero or more
// arguments, each a symbol or, recursively, a constructor application. A
// graph stores its edge labels as flat records in a Slab (see Ground). A
// transition label additionally allows parameters, wildcards, and
// negations in any argument position or at the top level; it is compiled
// to a CTerm.
package label

import "slices"

// NoSym is the sentinel for "no symbol" / "unbound".
const NoSym int32 = -1

// Interner assigns dense int32 keys to strings. Keys are assigned in
// first-seen order starting at 0, or, in an overlay, after the keys of its
// base (see Universe.Overlay). The zero value is ready to use.
type Interner struct {
	byName map[string]int32
	names  []string

	// base, in an overlay, is the interner whose first baseLen keys this
	// one reads and never writes.
	base    *Interner
	baseLen int32
}

// Intern returns the key for name, assigning a fresh key if needed.
func (in *Interner) Intern(name string) int32 {
	if k, ok := in.Lookup(name); ok {
		return k
	}
	if in.byName == nil {
		in.byName = make(map[string]int32)
	}
	k := in.baseLen + int32(len(in.names))
	in.byName[name] = k
	in.names = append(in.names, name)
	return k
}

// Grow reserves room for n more strings. The index is presized only while
// the interner is empty.
func (in *Interner) Grow(n int) {
	if len(in.byName) == 0 {
		in.byName = make(map[string]int32, n)
	}
	in.names = slices.Grow(in.names, n)
}

// Lookup returns the key for name and whether it has been interned.
func (in *Interner) Lookup(name string) (int32, bool) {
	if in.base != nil {
		if k, ok := in.base.Lookup(name); ok && k < in.baseLen {
			return k, true
		}
	}
	k, ok := in.byName[name]
	return k, ok
}

// Name returns the string for key k. It panics if k was never assigned.
func (in *Interner) Name(k int32) string {
	if k < in.baseLen {
		return in.base.Name(k)
	}
	return in.names[k-in.baseLen]
}

// Len reports the number of interned strings.
func (in *Interner) Len() int { return int(in.baseLen) + len(in.names) }

// Names returns the interned strings in key order. The returned slice is
// owned by the interner and must not be modified. An overlay returns a
// fresh slice.
func (in *Interner) Names() []string {
	if in.base == nil {
		return in.names
	}
	return append(slices.Clip(in.base.Names()[:in.baseLen]), in.names...)
}

// Universe interns the constructor names and symbol names shared between a
// graph and the patterns queried against it. Patterns are compiled against
// an overlay of the universe of the graph they will run on, so that symbol
// keys agree.
type Universe struct {
	Ctors Interner
	Syms  Interner
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe { return &Universe{} }

// Overlay returns a universe that reads u's names and keys and interns
// any name u lacks under a key of its own, above u's range, writing
// nothing to u. A pattern compiled against an overlay of its graph's
// universe leaves that universe as it was, so concurrent compilations
// share it safely and no later query sees the pattern's names; a name
// only the pattern has matches no edge label. Interning into u after the
// overlay was made does not reach the overlay.
func (u *Universe) Overlay() Universe {
	return Universe{
		Ctors: Interner{base: &u.Ctors, baseLen: int32(u.Ctors.Len())},
		Syms:  Interner{base: &u.Syms, baseLen: int32(u.Syms.Len())},
	}
}

// NumSymbols reports the number of distinct symbols interned, which is the
// "symbs" quantity of the paper's complexity analysis (Figure 2).
func (u *Universe) NumSymbols() int { return u.Syms.Len() }

// AllSymbols returns the keys of every interned symbol, in key order.
func (u *Universe) AllSymbols() []int32 {
	out := make([]int32, u.Syms.Len())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
