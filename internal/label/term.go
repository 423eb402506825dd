package label

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the variants of a Term.
type Kind uint8

const (
	// KApp is a constructor applied to zero or more argument terms.
	KApp Kind = iota
	// KSym is a concrete symbol (a name or literal from the graph).
	KSym
	// KParam is a pattern parameter that can be instantiated to symbols.
	KParam
	// KWildcard matches any edge label or argument.
	KWildcard
	// KNeg is the negation of its single argument term.
	KNeg
	// KOr is an alternation of transition labels. It appears in patterns
	// like ¬(def(x)|use(x)) (Section 2.2): a label matches ¬(A|B) iff it
	// matches neither A nor B. Positive alternations at the top level of a
	// label are split into automaton alternation during pattern
	// compilation, so the matcher only ever sees KOr under KNeg.
	KOr
)

func (k Kind) String() string {
	switch k {
	case KApp:
		return "app"
	case KSym:
		return "sym"
	case KParam:
		return "param"
	case KWildcard:
		return "wildcard"
	case KNeg:
		return "neg"
	case KOr:
		return "or"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Term is the parse-time (name-based) representation of an edge label or
// transition label. Compile resolves a Term against a Universe into a CTerm
// for efficient matching.
type Term struct {
	Kind Kind
	// Name is the constructor name for KApp, the symbol name for KSym, and
	// the parameter name for KParam.
	Name string
	// Args holds the arguments for KApp and the single negated term for KNeg.
	Args []*Term
}

// App returns the application of constructor ctor to args.
func App(ctor string, args ...*Term) *Term {
	return &Term{Kind: KApp, Name: ctor, Args: args}
}

// Sym returns the symbol term for name.
func Sym(name string) *Term { return &Term{Kind: KSym, Name: name} }

// Param returns the parameter term for name.
func Param(name string) *Term { return &Term{Kind: KParam, Name: name} }

// Wildcard returns the wildcard term, written "_".
func Wildcard() *Term { return &Term{Kind: KWildcard} }

// Neg returns the negation of t, written "!t".
func Neg(t *Term) *Term { return &Term{Kind: KNeg, Args: []*Term{t}} }

// Or returns the alternation of the given labels, written "(a|b|...)".
func Or(ts ...*Term) *Term { return &Term{Kind: KOr, Args: ts} }

// String renders the term in the textual syntax accepted by Parse: bare
// identifiers for constructors and parameters, quoted identifiers for symbols
// in argument position, "_" for wildcards, and "!" for negation.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b, true)
	return b.String()
}

func (t *Term) write(b *strings.Builder, top bool) {
	switch t.Kind {
	case KApp:
		b.WriteString(t.Name)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			a.write(b, false)
		}
		b.WriteByte(')')
	case KSym:
		writeSym(b, t.Name, !top)
	case KParam:
		b.WriteString(t.Name)
	case KWildcard:
		b.WriteByte('_')
	case KNeg:
		b.WriteByte('!')
		inner := t.Args[0]
		if inner.Kind == KNeg {
			b.WriteByte('(')
			inner.write(b, top)
			b.WriteByte(')')
		} else {
			// KOr prints its own surrounding parentheses.
			inner.write(b, top)
		}
	case KOr:
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte('|')
			}
			a.write(b, top)
		}
		b.WriteByte(')')
	}
}

// writeSym writes a symbol: bare if numeric and bare is allowed, else
// quoted, with " when the name holds a ' (a quoted symbol runs to the
// first closing quote, so no parsed name holds both).
func writeSym(b *strings.Builder, name string, bare bool) {
	if bare && isNumeric(name) {
		b.WriteString(name)
		return
	}
	q := byte('\'')
	if strings.IndexByte(name, q) >= 0 {
		q = '"'
	}
	b.WriteByte(q)
	b.WriteString(name)
	b.WriteByte(q)
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Equal reports structural equality of two terms.
func (t *Term) Equal(o *Term) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Name != o.Name || len(t.Args) != len(o.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// IsGround reports whether the term contains no parameters, wildcards, or
// negations, i.e. whether it is a valid edge label.
func (t *Term) IsGround() bool {
	switch t.Kind {
	case KSym:
		return true
	case KApp:
		for _, a := range t.Args {
			if !a.IsGround() {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Params returns the sorted set of parameter names occurring in the term.
func (t *Term) Params() []string {
	set := map[string]bool{}
	t.collectParams(set)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (t *Term) collectParams(set map[string]bool) {
	if t.Kind == KParam {
		set[t.Name] = true
	}
	for _, a := range t.Args {
		a.collectParams(set)
	}
}

// Size returns the number of nodes in the term, the "labelsize" quantity of
// the paper's complexity analysis.
func (t *Term) Size() int {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Validate checks the structural restrictions on transition labels: the top
// level must be an application, a negation of one, or a wildcard; KNeg has
// exactly one argument; symbol and parameter terms have none.
func (t *Term) Validate() error {
	switch t.Kind {
	case KApp, KWildcard, KOr:
	case KNeg:
		if inner := t.Args[0]; inner.Kind != KApp && inner.Kind != KWildcard && inner.Kind != KNeg && inner.Kind != KOr {
			return fmt.Errorf("label: top-level negation must surround a constructor application, got %v", inner.Kind)
		}
	default:
		return fmt.Errorf("label: a transition label must be an application, negation, or wildcard, got %v", t.Kind)
	}
	return t.validateRec()
}

func (t *Term) validateRec() error {
	switch t.Kind {
	case KSym, KParam, KWildcard:
		if len(t.Args) != 0 {
			return fmt.Errorf("label: %v term must have no arguments", t.Kind)
		}
	case KNeg:
		if len(t.Args) != 1 {
			return fmt.Errorf("label: negation must have exactly one argument, got %d", len(t.Args))
		}
		return t.Args[0].validateRec()
	case KApp:
		if t.Name == "" {
			return fmt.Errorf("label: constructor application with empty name")
		}
		for _, a := range t.Args {
			if err := a.validateRec(); err != nil {
				return err
			}
		}
	case KOr:
		if len(t.Args) < 2 {
			return fmt.Errorf("label: alternation must have at least two alternatives, got %d", len(t.Args))
		}
		for _, a := range t.Args {
			if a.Kind != KApp && a.Kind != KWildcard {
				return fmt.Errorf("label: alternation alternatives must be constructor applications or wildcards, got %v", a.Kind)
			}
			if err := a.validateRec(); err != nil {
				return err
			}
		}
	}
	return nil
}
