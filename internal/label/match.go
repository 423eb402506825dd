package label

// Binding maps one parameter index to one symbol key.
type Binding struct {
	Param int32
	Sym   int32
}

// Bindings is a small substitution fragment: a set of parameter-to-symbol
// bindings, kept sorted by parameter with no duplicate parameters.
type Bindings []Binding

// Get returns the symbol bound to p, or NoSym.
func (bs Bindings) Get(p int32) int32 {
	for _, b := range bs {
		if b.Param == p {
			return b.Sym
		}
	}
	return NoSym
}

// bind adds p↦s, reporting false on a conflicting existing binding.
// Consistent duplicates are collapsed.
func (bs *Bindings) bind(p, s int32) bool {
	for _, b := range *bs {
		if b.Param == p {
			return b.Sym == s
		}
	}
	*bs = append(*bs, Binding{Param: p, Sym: s})
	return true
}

// normalize sorts the bindings by parameter index. Fragments hold a few
// bindings, so an insertion sort beats sort.Slice and does not allocate.
func (bs Bindings) normalize() {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Param < bs[j-1].Param; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// Clone returns a copy of the bindings.
func (bs Bindings) Clone() Bindings {
	out := make(Bindings, len(bs))
	copy(out, bs)
	return out
}

// Match is the result of matching one edge label against one transition
// label with the agree/disagree mechanism of Section 3: the label matches
// under a full substitution θ iff θ is consistent with Agree and θ
// contradicts at least one binding in Disagree. An empty Disagree imposes no
// negative constraint. Match results depend only on the (edge label,
// transition label) pair, which is what makes them memoizable (the
// substitution map M_s).
type Match struct {
	// OK reports whether any substitution can make the labels match. When
	// false the other fields are meaningless.
	OK bool
	// Agree holds the positive bindings required for the match.
	Agree Bindings
	// Disagrees holds, for each way the (single) negated subterm can match
	// the edge label, the bindings under which it does; θ must contradict
	// at least one binding in EACH element. A negated alternation
	// ¬(A|B|…) can contribute several elements (one per alternative that
	// unifies). Empty means the negation (if any) is satisfied
	// unconditionally.
	Disagrees []Bindings
	// dparams caches DisagreeParams, filled by MatchADInto.
	dparams []int32
}

// DisagreeParams returns the sorted set of parameters occurring in any
// disagree set. The slice is computed once per match and must not be
// modified.
func (m *Match) DisagreeParams() []int32 { return m.dparams }

// MatchAD matches ground edge label el against transition label tl and
// returns the agree/disagree decomposition. Precondition: tl.ADCompatible()
// — at most one parameter-carrying negation and no nested negations.
func MatchAD(tl *CTerm, el Ground) Match {
	var m Match
	MatchADInto(&m, tl, el)
	return m
}

// MatchADInto is MatchAD writing into m, reusing the capacity of its Agree,
// Disagrees (including each inner Bindings) and parameter slices, so that
// matching into a warmed Match does not allocate. Whatever m held before is
// overwritten; on a failed match m.OK is false and the slices are empty.
func MatchADInto(m *Match, tl *CTerm, el Ground) {
	m.Agree = m.Agree[:0]
	m.Disagrees = m.Disagrees[:0]
	m.dparams = m.dparams[:0]
	if _, ok := matchADRec(tl, el, 0, m); !ok {
		m.OK = false
		m.Agree = m.Agree[:0]
		m.Disagrees = m.Disagrees[:0]
		return
	}
	m.OK = true
	m.Agree.normalize()
	for _, d := range m.Disagrees {
		d.normalize()
		for _, b := range d {
			m.dparams = insertSorted(m.dparams, b.Param)
		}
	}
}

// insertSorted adds p to the sorted set ps unless already present.
func insertSorted(ps []int32, p int32) []int32 {
	i := len(ps)
	for i > 0 && ps[i-1] > p {
		i--
	}
	if i > 0 && ps[i-1] == p {
		return ps
	}
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	return ps
}

// matchADRec matches tl against the node of el at offset i and returns
// the offset just past that node's subtree.
func matchADRec(tl *CTerm, el Ground, i int, m *Match) (int, bool) {
	switch tl.Kind {
	case KWildcard:
		return el.Skip(i), true
	case KSym:
		return i + 1, el[i] == ^tl.Sym
	case KParam:
		if el[i] >= 0 {
			// Parameters instantiate to symbols only (Section 2.1).
			return i, false
		}
		return i + 1, m.Agree.bind(tl.Param, ^el[i])
	case KApp:
		if el[i] != tl.Ctor || int(el[i+1]) != len(tl.Args) {
			return i, false
		}
		i += 2
		for _, a := range tl.Args {
			var ok bool
			if i, ok = matchADRec(a, el, i, m); !ok {
				return i, false
			}
		}
		return i, true
	case KNeg:
		alts := tl.Args[:1]
		if inner := tl.Args[0]; inner.Kind == KOr {
			alts = inner.Args
		}
		for _, alt := range alts {
			// Unify into the next Disagrees slot, reusing its storage.
			n := len(m.Disagrees)
			if n < cap(m.Disagrees) {
				m.Disagrees = m.Disagrees[:n+1]
				m.Disagrees[n] = m.Disagrees[n][:0]
			} else {
				m.Disagrees = append(m.Disagrees, nil)
			}
			d := &m.Disagrees[n]
			if _, ok := unifyPos(alt, el, i, d); !ok {
				// Alternatives that can never match el impose no
				// constraint.
				m.Disagrees = m.Disagrees[:n]
				continue
			}
			if len(*d) == 0 {
				// This alternative matches under every substitution, so
				// the negation never holds.
				return i, false
			}
			// The alternative matches exactly when θ agrees with all of
			// d; it stays recorded so the caller can require
			// disagreement.
		}
		return el.Skip(i), true
	case KOr:
		// Positive alternations are split into automaton alternation during
		// pattern compilation and never reach the matcher.
		panic("label: MatchAD on a positive label alternation; split it first")
	}
	panic("unreachable")
}

// unifyPos unifies a negation-free transition term with the node of el at
// offset i, accumulating parameter bindings, and returns the offset just
// past that node's subtree. Used for negation bodies, where an internal
// conflict means the body can never match.
func unifyPos(tl *CTerm, el Ground, i int, bs *Bindings) (int, bool) {
	switch tl.Kind {
	case KWildcard:
		return el.Skip(i), true
	case KSym:
		return i + 1, el[i] == ^tl.Sym
	case KParam:
		if el[i] >= 0 {
			return i, false
		}
		return i + 1, bs.bind(tl.Param, ^el[i])
	case KApp:
		if el[i] != tl.Ctor || int(el[i+1]) != len(tl.Args) {
			return i, false
		}
		i += 2
		for _, a := range tl.Args {
			var ok bool
			if i, ok = unifyPos(a, el, i, bs); !ok {
				return i, false
			}
		}
		return i, true
	case KNeg, KOr:
		// Nested negation or alternation inside a negation body; not
		// AD-compatible.
		panic("label: nested negation or alternation in MatchAD body")
	}
	panic("unreachable")
}

// MatchGround evaluates the full matching relation of Section 2.1 for edge
// label el against θ(tl), where θ is given as a dense substitution vector
// (indexed by parameter; NoSym = unbound).
//
// Precondition: every parameter of tl is bound in subst, so that θ(tl)
// contains no parameters. If an unbound parameter is encountered the label
// does not match (θ(tl) would not be ground).
func MatchGround(tl *CTerm, el Ground, subst []int32) bool {
	_, ok := matchGround(tl, el, 0, subst)
	return ok
}

// matchGround matches θ(tl) against the node of el at offset i and returns
// the offset just past that node's subtree.
func matchGround(tl *CTerm, el Ground, i int, subst []int32) (int, bool) {
	switch tl.Kind {
	case KWildcard:
		return el.Skip(i), true
	case KSym:
		return i + 1, el[i] == ^tl.Sym
	case KParam:
		if int(tl.Param) >= len(subst) || subst[tl.Param] == NoSym {
			return i, false
		}
		return i + 1, el[i] == ^subst[tl.Param]
	case KApp:
		if el[i] != tl.Ctor || int(el[i+1]) != len(tl.Args) {
			return i, false
		}
		i += 2
		for _, a := range tl.Args {
			var ok bool
			if i, ok = matchGround(a, el, i, subst); !ok {
				return i, false
			}
		}
		return i, true
	case KNeg:
		// θ(tl) must be ground for the match to be defined; all parameters
		// of the body must be bound.
		if !CoveredBy(tl.Args[0], subst) {
			return i, false
		}
		_, ok := matchGround(tl.Args[0], el, i, subst)
		return el.Skip(i), !ok
	case KOr:
		for _, a := range tl.Args {
			if _, ok := matchGround(a, el, i, subst); ok {
				return el.Skip(i), true
			}
		}
		return i, false
	}
	panic("unreachable")
}

// CoveredBy reports whether every parameter of tl is bound in subst.
func CoveredBy(tl *CTerm, subst []int32) bool {
	for _, p := range tl.Params() {
		if int(p) >= len(subst) || subst[p] == NoSym {
			return false
		}
	}
	return true
}
