// Package label implements edge labels and transition labels for parametric
// regular path queries: constructor terms over symbols, parameters,
// wildcards, and negations, together with interning and the match operation
// of Liu et al., "Parametric Regular Path Queries" (PLDI 2004), Section 2.4
// and Section 3.
//
// An edge label is a ground term: a constructor applied to zero or more
// arguments, each a symbol or, recursively, a constructor application. A
// transition label additionally allows parameters, wildcards, and negations
// in any argument position or at the top level.
package label

import "slices"

// NoSym is the sentinel for "no symbol" / "unbound".
const NoSym int32 = -1

// Interner assigns dense int32 keys to strings. Keys are assigned in
// first-seen order starting at 0. The zero value is ready to use.
type Interner struct {
	byName map[string]int32
	names  []string
}

// Intern returns the key for name, assigning a fresh key if needed.
func (in *Interner) Intern(name string) int32 {
	if in.byName == nil {
		in.byName = make(map[string]int32)
	}
	if k, ok := in.byName[name]; ok {
		return k
	}
	k := int32(len(in.names))
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
	k, ok := in.byName[name]
	return k, ok
}

// Name returns the string for key k. It panics if k was never assigned.
func (in *Interner) Name(k int32) string { return in.names[k] }

// Len reports the number of interned strings.
func (in *Interner) Len() int { return len(in.names) }

// Names returns the interned strings in key order. The returned slice is
// owned by the interner and must not be modified.
func (in *Interner) Names() []string { return in.names }

// Universe interns the constructor names and symbol names shared between a
// graph and the patterns queried against it. Patterns are compiled against
// the universe of the graph they will run on, so that symbol keys agree.
type Universe struct {
	Ctors Interner
	Syms  Interner
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe { return &Universe{} }

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
