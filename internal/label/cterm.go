package label

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// CTerm is a transition label compiled against a Universe: constructor and
// symbol names are resolved to dense integer keys, and parameter names to
// indices in a pattern's parameter space. CTerms are immutable after
// compilation. Ground edge labels are flat records (Ground) instead.
type CTerm struct {
	Kind  Kind
	Ctor  int32    // constructor key, for KApp
	Sym   int32    // symbol key, for KSym
	Param int32    // parameter index, for KParam
	Args  []*CTerm // arguments for KApp; the single body for KNeg

	// size caches Size(); numNegParams caches the count of negations that
	// contain at least one parameter, used by the matcher dispatch.
	size         int
	numNegParams int
	nestedNeg    bool
	params       []int32 // sorted parameter indices occurring in the term
	key          string  // canonical key, distinct terms have distinct keys
}

// ParamSpace assigns dense indices to parameter names across the labels of
// one compiled pattern. The zero value is ready to use.
type ParamSpace struct {
	in Interner
}

// Index interns the parameter name and returns its index.
func (ps *ParamSpace) Index(name string) int32 { return ps.in.Intern(name) }

// Lookup returns the index of name if it has been interned.
func (ps *ParamSpace) Lookup(name string) (int32, bool) { return ps.in.Lookup(name) }

// Name returns the name of parameter i.
func (ps *ParamSpace) Name(i int32) string { return ps.in.Name(i) }

// Len reports the number of parameters, the "pars" quantity of Figure 2.
func (ps *ParamSpace) Len() int { return ps.in.Len() }

// Names returns the parameter names in index order.
func (ps *ParamSpace) Names() []string { return ps.in.Names() }

// Compile resolves t against the universe u and parameter space ps.
// Compiling interns any constructor or symbol names not yet present in u.
func Compile(t *Term, u *Universe, ps *ParamSpace) (*CTerm, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c := compileRec(t, u, ps)
	c.finish()
	return c, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(t *Term, u *Universe, ps *ParamSpace) *CTerm {
	c, err := Compile(t, u, ps)
	if err != nil {
		panic(err)
	}
	return c
}

func compileRec(t *Term, u *Universe, ps *ParamSpace) *CTerm {
	c := &CTerm{Kind: t.Kind, Ctor: -1, Sym: NoSym, Param: -1}
	switch t.Kind {
	case KApp:
		c.Ctor = u.Ctors.Intern(t.Name)
		c.Args = make([]*CTerm, len(t.Args))
		for i, a := range t.Args {
			c.Args[i] = compileRec(a, u, ps)
		}
	case KSym:
		c.Sym = u.Syms.Intern(t.Name)
	case KParam:
		c.Param = ps.Index(t.Name)
	case KNeg:
		c.Args = []*CTerm{compileRec(t.Args[0], u, ps)}
	case KOr:
		c.Args = make([]*CTerm, len(t.Args))
		for i, a := range t.Args {
			c.Args[i] = compileRec(a, u, ps)
		}
	case KWildcard:
	}
	return c
}

// finish computes the cached analyses (size, parameter set, negation
// classification, canonical key) on every node of a freshly built CTerm
// tree, bottom-up.
func (c *CTerm) finish() {
	for _, a := range c.Args {
		a.finish()
	}
	c.size = 1
	set := map[int32]bool{}
	switch c.Kind {
	case KParam:
		set[c.Param] = true
	case KNeg:
		inner := c.Args[0]
		c.size += inner.size
		for _, p := range inner.params {
			set[p] = true
		}
		c.numNegParams = inner.numNegParams
		if len(inner.params) > 0 {
			c.numNegParams++
		}
		c.nestedNeg = inner.nestedNeg || inner.containsNeg()
	case KApp, KOr:
		for _, a := range c.Args {
			c.size += a.size
			for _, p := range a.params {
				set[p] = true
			}
			c.numNegParams += a.numNegParams
			c.nestedNeg = c.nestedNeg || a.nestedNeg
		}
	}
	c.params = make([]int32, 0, len(set))
	for p := range set {
		c.params = append(c.params, p)
	}
	slices.Sort(c.params)
	var b strings.Builder
	c.writeKey(&b)
	c.key = b.String()
}

// containsNeg reports whether a negation node occurs anywhere in the term.
func (c *CTerm) containsNeg() bool {
	if c.Kind == KNeg {
		return true
	}
	for _, a := range c.Args {
		if a.containsNeg() {
			return true
		}
	}
	return false
}

func (c *CTerm) writeKey(b *strings.Builder) {
	switch c.Kind {
	case KApp:
		b.WriteByte('a')
		b.WriteString(strconv.Itoa(int(c.Ctor)))
		b.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.writeKey(b)
		}
		b.WriteByte(')')
	case KSym:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(c.Sym)))
	case KParam:
		b.WriteByte('p')
		b.WriteString(strconv.Itoa(int(c.Param)))
	case KWildcard:
		b.WriteByte('w')
	case KNeg:
		b.WriteByte('!')
		c.Args[0].writeKey(b)
	case KOr:
		b.WriteByte('o')
		b.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				b.WriteByte('|')
			}
			a.writeKey(b)
		}
		b.WriteByte(')')
	}
}

// NegOr builds the compiled label ¬(a1|a2|…) from already compiled
// alternatives (or ¬a1 if only one is given). It is used by the Section 5.4
// violation-query construction to skip all operations a discipline does not
// mention.
func NegOr(alts ...*CTerm) *CTerm {
	if len(alts) == 0 {
		panic("label: NegOr needs at least one alternative")
	}
	inner := alts[0]
	if len(alts) > 1 {
		inner = &CTerm{Kind: KOr, Ctor: -1, Sym: NoSym, Param: -1, Args: alts}
	}
	c := &CTerm{Kind: KNeg, Ctor: -1, Sym: NoSym, Param: -1, Args: []*CTerm{inner}}
	c.finish()
	return c
}

// Key returns a canonical string key: two compiled terms over the same
// universe have equal keys iff they are structurally equal.
func (c *CTerm) Key() string { return c.key }

// Size returns the node count ("labelsize" in Figure 2).
func (c *CTerm) Size() int { return c.size }

// Params returns the sorted parameter indices occurring in the term.
func (c *CTerm) Params() []int32 { return c.params }

// HasParams reports whether any parameter occurs in the term.
func (c *CTerm) HasParams() bool { return len(c.params) > 0 }

// NumNegWithParams reports the number of negation nodes whose bodies contain
// parameters. Labels with at most one such negation (and no nested negation)
// are handled by the efficient agree/disagree matcher; others require the
// generic extension-enumerating matcher (Section 3, "Negations and
// wildcards").
func (c *CTerm) NumNegWithParams() int { return c.numNegParams }

// HasNestedNeg reports whether a negation occurs inside another negation.
func (c *CTerm) HasNestedNeg() bool { return c.nestedNeg }

// ADCompatible reports whether the label can be matched with the
// agree/disagree mechanism: at most one parameter-carrying negation and no
// nested negations.
func (c *CTerm) ADCompatible() bool { return c.numNegParams <= 1 && !c.nestedNeg }

// String renders the compiled term using the universe-free canonical key.
// For human-readable output use Format with the owning universe.
func (c *CTerm) String() string { return c.key }

// Format renders the compiled term with names resolved against u and ps
// (ps may be nil for a parameter-free term).
func (c *CTerm) Format(u *Universe, ps *ParamSpace) string {
	var b strings.Builder
	c.format(&b, u, ps, true)
	return b.String()
}

func (c *CTerm) format(b *strings.Builder, u *Universe, ps *ParamSpace, top bool) {
	switch c.Kind {
	case KApp:
		b.WriteString(u.Ctors.Name(c.Ctor))
		b.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.format(b, u, ps, false)
		}
		b.WriteByte(')')
	case KSym:
		writeSym(b, u.Syms.Name(c.Sym), true)
	case KParam:
		if ps != nil {
			b.WriteString(ps.Name(c.Param))
		} else {
			fmt.Fprintf(b, "p%d", c.Param)
		}
	case KWildcard:
		b.WriteByte('_')
	case KNeg:
		b.WriteByte('!')
		inner := c.Args[0]
		if inner.Kind == KNeg {
			b.WriteByte('(')
			inner.format(b, u, ps, top)
			b.WriteByte(')')
		} else {
			// KOr prints its own surrounding parentheses.
			inner.format(b, u, ps, top)
		}
	case KOr:
		b.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				b.WriteByte('|')
			}
			a.format(b, u, ps, top)
		}
		b.WriteByte(')')
	}
}

// PositivePositions calls fn for every (constructor key, argument index)
// position at which a parameter occurs positively (outside any negation).
// It is used for parameter-domain refinement (Section 5.3).
func (c *CTerm) PositivePositions(fn func(param int32, ctor int32, arg int)) {
	c.positivePositions(fn, false)
}

func (c *CTerm) positivePositions(fn func(param, ctor int32, arg int), underNeg bool) {
	switch c.Kind {
	case KApp:
		for i, a := range c.Args {
			if a.Kind == KParam && !underNeg {
				fn(a.Param, c.Ctor, i)
			}
			a.positivePositions(fn, underNeg)
		}
	case KNeg:
		c.Args[0].positivePositions(fn, true)
	case KOr:
		for _, a := range c.Args {
			a.positivePositions(fn, underNeg)
		}
	}
}

// AllPositions calls fn for every (constructor key, argument index) position
// at which a parameter occurs, whether positively or under negation.
func (c *CTerm) AllPositions(fn func(param int32, ctor int32, arg int)) {
	var rec func(t *CTerm)
	rec = func(t *CTerm) {
		switch t.Kind {
		case KApp:
			for i, a := range t.Args {
				if a.Kind == KParam {
					fn(a.Param, t.Ctor, i)
				}
				rec(a)
			}
		case KNeg, KOr:
			for _, a := range t.Args {
				rec(a)
			}
		}
	}
	rec(c)
}
