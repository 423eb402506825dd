// Package subst implements substitutions — maps from pattern parameters to
// graph symbols — and the merge and extensions operations of Liu et al.,
// "Parametric Regular Path Queries" (PLDI 2004), Sections 2.4 and 3, together
// with the substitution interning tables (hash-based and nested-array-based)
// compared in the paper's Table 3.
package subst

import (
	"fmt"
	"strings"

	"rpq/internal/label"
)

// NoSym marks an unbound parameter.
const NoSym = label.NoSym

// Subst is a substitution represented densely: index i holds the symbol key
// bound to parameter i, or NoSym. All substitutions for a query have the
// same length, the number of parameters in the pattern ("pars" in Figure 2).
type Subst []int32

// New returns the empty substitution over pars parameters.
func New(pars int) Subst {
	s := make(Subst, pars)
	for i := range s {
		s[i] = NoSym
	}
	return s
}

// Clone returns a copy of s.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	copy(out, s)
	return out
}

// Bound reports whether parameter p is bound.
func (s Subst) Bound(p int32) bool { return s[p] != NoSym }

// NumBound returns the number of bound parameters.
func (s Subst) NumBound() int {
	n := 0
	for _, v := range s {
		if v != NoSym {
			n++
		}
	}
	return n
}

// Covers reports whether every parameter in params is bound in s.
func (s Subst) Covers(params []int32) bool {
	for _, p := range params {
		if s[p] == NoSym {
			return false
		}
	}
	return true
}

// Extends reports whether s agrees with t wherever t is bound (s ⊇ t).
func (s Subst) Extends(t Subst) bool {
	for i, v := range t {
		if v != NoSym && s[i] != v {
			return false
		}
	}
	return true
}

// Equal reports whether s and t are identical.
func (s Subst) Equal(t Subst) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Merge computes merge({s, t}): the union if s and t agree on the
// intersection of their domains, or ok=false (badsubst) otherwise. The
// result is freshly allocated.
func Merge(s, t Subst) (Subst, bool) {
	out := make(Subst, len(s))
	for i := range s {
		a, b := s[i], t[i]
		switch {
		case a == NoSym:
			out[i] = b
		case b == NoSym || a == b:
			out[i] = a
		default:
			return nil, false
		}
	}
	return out, true
}

// MergeInto is Merge writing the result into dst (which must have the same
// length); it avoids allocation in inner loops. dst may alias s.
func MergeInto(dst, s, t Subst) bool {
	for i := range s {
		a, b := s[i], t[i]
		switch {
		case a == NoSym:
			dst[i] = b
		case b == NoSym || a == b:
			dst[i] = a
		default:
			return false
		}
	}
	return true
}

// MergeBindings computes merge(s, bs) for a bindings fragment given as
// flat (parameter, symbol) pairs, writing into dst (same length as s; may
// alias s). Reports false on conflict.
func MergeBindings(dst, s Subst, bs []int32) bool {
	if len(dst) == 0 {
		return len(bs) == 0
	}
	if &dst[0] != &s[0] {
		copy(dst, s)
	}
	for i := 0; i+1 < len(bs); i += 2 {
		p, sym := bs[i], bs[i+1]
		if cur := dst[p]; cur != NoSym && cur != sym {
			return false
		}
		dst[p] = sym
	}
	return true
}

// Contradicts reports whether merge(s, bs) = badsubst, i.e. s disagrees with
// at least one binding of the flat (parameter, symbol) pairs bs on a
// parameter bound in both. This is the disagree test of Section 3: a label
// with a single negation matches under s iff s is consistent with agree and
// Contradicts(s, disagree).
func Contradicts(s Subst, bs []int32) bool {
	for i := 0; i+1 < len(bs); i += 2 {
		if v := s[bs[i]]; v != NoSym && v != bs[i+1] {
			return true
		}
	}
	return false
}

// MergeAll merges a list of substitutions left to right, reporting badsubst
// as ok=false. An empty list yields the empty substitution over pars
// parameters.
func MergeAll(pars int, list []Subst) (Subst, bool) {
	out := New(pars)
	for _, s := range list {
		if !MergeInto(out, out, s) {
			return nil, false
		}
	}
	return out, true
}

// Format renders s using parameter names from ps and symbol names from u.
func (s Subst) Format(u *label.Universe, ps *label.ParamSpace) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range s {
		if v == NoSym {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s↦%s", ps.Name(int32(i)), u.Syms.Name(v))
	}
	b.WriteByte('}')
	return b.String()
}

// String renders s with raw indices (for debugging).
func (s Subst) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range s {
		if v == NoSym {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "p%d↦s%d", i, v)
	}
	b.WriteByte('}')
	return b.String()
}
