package analyze

import (
	"fmt"

	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/span"
)

// checkAST walks the pattern tree and reports the purely structural
// findings: unsatisfiable labels (RPQ007), duplicate or subsumed alternation
// branches (RPQ008), repetition of nullable sub-patterns (RPQ009), and
// labels off the matcher's fast path (RPQ017, RPQ018).
func (l *linter) checkAST(e pattern.Expr) {
	switch n := e.(type) {
	case pattern.Epsilon:
	case *pattern.Lbl:
		if unsatLabel(n.Term) {
			l.report(CodeUnsatLabel, Error, n.Span,
				fmt.Sprintf("label %s can match no edge label: the negation covers everything", n.Term),
				"remove the wildcard from the negation, or drop the label")
		}
		l.checkMatchCost(n)
	case *pattern.Concat:
		for _, it := range n.Items {
			l.checkAST(it)
		}
	case *pattern.Alt:
		l.checkAlt(n)
		for _, it := range n.Items {
			l.checkAST(it)
		}
	case *pattern.Star:
		l.checkRep(n.Sub, pattern.SpanOf(n), "*")
		l.checkAST(n.Sub)
	case *pattern.Plus:
		l.checkRep(n.Sub, pattern.SpanOf(n), "+")
		l.checkAST(n.Sub)
	case *pattern.Opt:
		l.checkRep(n.Sub, pattern.SpanOf(n), "?")
		l.checkAST(n.Sub)
	}
}

// checkAlt reports duplicate branches and 'eps' branches subsumed by a
// nullable sibling.
func (l *linter) checkAlt(a *pattern.Alt) {
	var sawNullable bool // a nullable non-eps branch seen anywhere
	for _, it := range a.Items {
		if _, isEps := it.(pattern.Epsilon); !isEps && nullable(it) {
			sawNullable = true
		}
	}
	for i, it := range a.Items {
		for j := 0; j < i; j++ {
			if pattern.Equal(a.Items[j], it) {
				l.report(CodeDupBranch, Warning, pattern.SpanOf(it),
					fmt.Sprintf("duplicate alternation branch %q", pattern.String(it)),
					"remove the repeated branch")
				break
			}
		}
		if _, isEps := it.(pattern.Epsilon); isEps && sawNullable {
			l.report(CodeDupBranch, Warning, pattern.SpanOf(it),
				"'eps' branch is subsumed: another branch already matches the empty path",
				"remove the 'eps' branch")
		}
	}
}

// checkRep reports repetition operators wrapping sub-patterns that already
// match the empty path, e.g. (a()*)* or (a()?)+.
func (l *linter) checkRep(sub pattern.Expr, sp span.Span, op string) {
	if nullable(sub) {
		l.report(CodeRedundantRep, Warning, sp,
			fmt.Sprintf("'%s' applied to %q, which already matches the empty path", op, pattern.String(sub)),
			"simplify the repetition; (e*)* is e*, (e?)+ is e*")
	}
}

// nullable reports whether the pattern matches the empty path.
func nullable(e pattern.Expr) bool {
	switch n := e.(type) {
	case pattern.Epsilon:
		return true
	case *pattern.Lbl:
		return false
	case *pattern.Concat:
		for _, it := range n.Items {
			if !nullable(it) {
				return false
			}
		}
		return true
	case *pattern.Alt:
		for _, it := range n.Items {
			if nullable(it) {
				return true
			}
		}
		return false
	case *pattern.Star, *pattern.Opt:
		return true
	case *pattern.Plus:
		return nullable(n.Sub)
	}
	return false
}

// unsatLabel reports whether the transition label can match no edge label of
// any graph: a negation whose body matches everything (!_ or !(…|_|…)).
func unsatLabel(t *label.Term) bool {
	return t.Kind == label.KNeg && coversAll(t.Args[0])
}

// coversAll reports whether the term matches every edge label: a wildcard,
// or an alternation containing one.
func coversAll(t *label.Term) bool {
	switch t.Kind {
	case label.KWildcard:
		return true
	case label.KOr:
		for _, a := range t.Args {
			if coversAll(a) {
				return true
			}
		}
	}
	return false
}

// checkMatchCost reports the two label shapes that leave the matcher's fast
// path (Section 3): a label outside the agree/disagree fragment takes the
// generic extension-enumerating matcher (RPQ017), and a label combining
// more than two parameters with a parameter-carrying negation pays the
// 2^labelpars factor (RPQ018).
func (l *linter) checkMatchCost(n *pattern.Lbl) {
	negPars, nested, _ := negShape(n.Term, false)
	if negPars > 1 || nested {
		l.report(CodeGenericMatch, Info, n.Span,
			fmt.Sprintf("label %s has multiple or nested parameter-carrying negations; it falls outside the agree/disagree fragment and uses the generic extension-enumerating matcher (Section 3)", n.Term),
			"keep at most one negation over parameters per label, and none nested, where the query allows")
	}
	if negPars == 0 {
		return
	}
	if pars := len(n.Term.Params()); pars > 2 {
		l.report(CodeLabelParsFactor, Info, n.Span,
			fmt.Sprintf("label %s combines %d parameters with negation; the 2^labelpars factor of Section 3 applies", n.Term, pars),
			"bind some of its parameters positively in an earlier label")
	}
}

// negShape reads off a label what label.CTerm's ADCompatible and
// NumNegWithParams read after compilation: the number of negations whose
// body mentions a parameter, whether a negation nests inside another, and
// whether t mentions a parameter at all.
func negShape(t *label.Term, underNeg bool) (negPars int, nested, params bool) {
	neg := t.Kind == label.KNeg
	nested = neg && underNeg
	params = t.Kind == label.KParam
	for _, a := range t.Args {
		n, nest, p := negShape(a, underNeg || neg)
		negPars += n
		nested = nested || nest
		params = params || p
	}
	if neg && params {
		negPars++
	}
	return negPars, nested, params
}
