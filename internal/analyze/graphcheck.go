package analyze

import (
	"fmt"
	"slices"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/label"
	"rpq/internal/pattern"
	"rpq/internal/span"
	"rpq/internal/subst"
)

// alphabet is what the satisfiability checks read of the graph: its label
// index, for the arities each constructor occurs with, and its distinct
// labels, for matching (which resolves names through the universe's
// interning tables). Building it reads the graph's shared index and
// allocates one slice of views into the graph's label slab.
type alphabet struct {
	u      *label.Universe
	ix     *graph.LabelIndex
	labels []label.Ground
}

func buildAlphabet(g *graph.Graph) *alphabet {
	return &alphabet{u: g.U, ix: g.LabelIndex(), labels: g.Labels()}
}

// ctorArities resolves a pattern-side constructor name to the sorted
// arities it occurs with in the graph's labels; false if it occurs in none.
func (a *alphabet) ctorArities(name string) ([]int32, bool) {
	id, ok := a.u.Ctors.Lookup(name)
	if !ok {
		return nil, false
	}
	arities := a.ix.Arities(id)
	return arities, len(arities) > 0
}

// couldMatch reports whether the pattern term t can match the ground edge
// label el under some parameter binding. Parameters and wildcards match
// anything; a negation is decidable only for parameter-free bodies and is
// conservatively matchable otherwise.
func couldMatch(t *label.Term, el label.Ground, u *label.Universe) bool {
	return couldMatchAt(t, el, 0, u)
}

// couldMatchAt is couldMatch against the node of el at offset i.
func couldMatchAt(t *label.Term, el label.Ground, i int, u *label.Universe) bool {
	k, key, n, next := el.Node(i)
	switch t.Kind {
	case label.KWildcard, label.KParam:
		return true
	case label.KSym:
		return k == label.KSym && t.Name == u.Syms.Name(key)
	case label.KApp:
		if k != label.KApp || len(t.Args) != n || t.Name != u.Ctors.Name(key) {
			return false
		}
		for _, a := range t.Args {
			if !couldMatchAt(a, el, next, u) {
				return false
			}
			next = el.Skip(next)
		}
		return true
	case label.KOr:
		for _, a := range t.Args {
			if couldMatchAt(a, el, i, u) {
				return true
			}
		}
		return false
	case label.KNeg:
		// !B fails against el only when B matches el under every binding;
		// that is decidable only for parameter-free bodies.
		body := t.Args[0]
		if len(body.Params()) == 0 {
			return !couldMatchAt(body, el, i, u)
		}
		return true
	}
	return true
}

// graphSat reports whether the transition label can match at least one of
// the graph's distinct edge labels.
func (a *alphabet) graphSat(t *label.Term) bool {
	for _, el := range a.labels {
		if couldMatch(t, el, a.u) {
			return true
		}
	}
	return false
}

// checkGraph runs the graph-dependent checks: the per-label alphabet
// checks (checkAlphabet), graph-level emptiness (RPQ012), and variant
// advice from the cost model (RPQ014, RPQ015).
func (l *linter) checkGraph(g *graph.Graph, e pattern.Expr) {
	a := buildAlphabet(g)
	n := buildNFA(e)
	l.checkAlphabet(a, n)

	// Graph-level emptiness: the pattern has accepting paths, but none
	// survive against this graph's alphabet.
	patSat := func(tr atrans) bool { return !unsatLabel(tr.term) }
	gSat := func(tr atrans) bool { return patSat(tr) && a.graphSat(tr.term) }
	if n.reach([]int{n.start}, patSat)[n.final] && !n.reach([]int{n.start}, gSat)[n.final] {
		l.report(CodeGraphEmpty, Error, span.Span{},
			"pattern cannot match any path of this graph: every accepting path needs a label no edge label satisfies",
			"check the RPQ010/RPQ011/RPQ013 findings above for the labels that cannot match")
	}

	l.adviseVariant(g, e)
}

// checkAlphabet runs the per-label alphabet checks on every transition
// label: constructor/arity satisfiability (RPQ010, RPQ011), vacuous
// negations (RPQ013) and alphabet coverage under negation (RPQ016).
// Findings are deduplicated by (code, message, span), so a label under a
// star reports once.
func (l *linter) checkAlphabet(a *alphabet, n *anfa) {
	seen := map[string]bool{}
	once := func(code string, sev Severity, sp span.Span, msg, hint string) {
		key := code + "\x00" + msg + "\x00" + fmt.Sprint(sp)
		if !seen[key] {
			seen[key] = true
			l.report(code, sev, sp, msg, hint)
		}
	}
	for _, lt := range n.labeledTrans() {
		l.checkLabelAlphabet(a, lt.tr.term, lt.tr.sp, once)
	}
}

// checkLabelAlphabet reports the alphabet findings for one transition label.
func (l *linter) checkLabelAlphabet(a *alphabet, t *label.Term, sp span.Span,
	once func(code string, sev Severity, sp span.Span, msg, hint string)) {
	// Positive constructor occurrences: unknown names and unseen arities.
	var walkPos func(t *label.Term)
	walkPos = func(t *label.Term) {
		switch t.Kind {
		case label.KApp:
			if arities, ok := a.ctorArities(t.Name); !ok {
				once(CodeUnknownCtor, Warning, sp,
					fmt.Sprintf("constructor %s never occurs in the graph; the label cannot match", t.Name),
					"check the constructor name against the graph's edge labels")
			} else if !slices.Contains(arities, int32(len(t.Args))) {
				once(CodeArityMismatch, Warning, sp,
					fmt.Sprintf("constructor %s occurs in the graph only with arity %s, not %d",
						t.Name, formatArities(arities), len(t.Args)),
					"adjust the argument count to match the graph's labels")
			}
			for _, arg := range t.Args {
				walkPos(arg)
			}
		case label.KOr:
			for _, alt := range t.Args {
				walkPos(alt)
			}
		case label.KNeg:
			// Negated occurrences are judged as a whole below, not
			// constructor-by-constructor.
		}
	}
	walkPos(t)

	// Vacuous negations, judged against the alphabet.
	var walkNeg func(t *label.Term)
	walkNeg = func(t *label.Term) {
		switch t.Kind {
		case label.KNeg:
			body := t.Args[0]
			if coversAll(body) {
				return // RPQ007 already covers !_
			}
			excludes := false
			for _, el := range a.labels {
				if couldMatch(body, el, a.u) {
					excludes = true
					break
				}
			}
			if !excludes {
				once(CodeNegVacuous, Info, sp,
					fmt.Sprintf("negation !%s excludes no edge label of this graph; the label behaves like _", body),
					"if the negated operation can occur, check its constructor name and arity")
				return
			}
			if len(body.Params()) == 0 {
				all := len(a.labels) > 0
				for _, el := range a.labels {
					if !couldMatch(body, el, a.u) {
						all = false
						break
					}
				}
				if all {
					once(CodeNegVacuous, Warning, sp,
						fmt.Sprintf("negation !%s excludes every edge label of this graph; the label can never match", body),
						"the graph has no edges outside the negated set")
				}
			}
		case label.KApp, label.KOr:
			for _, arg := range t.Args {
				walkNeg(arg)
			}
		}
	}
	walkNeg(t)

	// Alphabet coverage under negation (RPQ016). RPQ010/RPQ011 judge only
	// positive occurrences, and RPQ013 judges a negation as a whole — so a
	// never-emitted constructor inside a negation whose other alternatives
	// do exclude something slips through both: the query still "works" but
	// excludes less than written. That is the shape frontend/schema drift
	// takes (e.g. a pattern written against acq/rel run on a graph whose
	// front end emits the canonical lock/unlock).
	var walkCover func(t *label.Term, negated bool)
	walkCover = func(t *label.Term, negated bool) {
		switch t.Kind {
		case label.KApp:
			if negated {
				if arities, ok := a.ctorArities(t.Name); !ok {
					once(CodeAlphabetCoverage, Warning, sp,
						fmt.Sprintf("negated constructor %s never occurs in the graph; the negation excludes less than written", t.Name),
						"if the operation can occur, the front end may emit a different constructor; internal/cfgschema lists the canonical names (e.g. lock/unlock, not acq/rel)")
				} else if !slices.Contains(arities, int32(len(t.Args))) {
					once(CodeAlphabetCoverage, Warning, sp,
						fmt.Sprintf("negated constructor %s occurs in the graph only with arity %s, not %d; the negation excludes less than written",
							t.Name, formatArities(arities), len(t.Args)),
						"adjust the argument count to match the graph's labels")
				}
			}
			for _, arg := range t.Args {
				walkCover(arg, negated)
			}
		case label.KOr:
			for _, alt := range t.Args {
				walkCover(alt, negated)
			}
		case label.KNeg:
			walkCover(t.Args[0], true)
		}
	}
	walkCover(t, false)
}

func formatArities(arities []int32) string {
	if len(arities) == 1 {
		return fmt.Sprint(arities[0])
	}
	return fmt.Sprint(arities)
}

// adviseVariant evaluates the Figure 2 cost model for the query on this
// graph and flags predictably dominated algorithm or table choices
// (Tables 1 and 3 of the paper). It reuses core.EstimateQuery — the same
// plumbing behind the public EstimateQuery API.
func (l *linter) adviseVariant(g *graph.Graph, e pattern.Expr) {
	q, err := core.Compile(e, g.U)
	if err != nil {
		// Compilation problems surface at query time with their own errors.
		return
	}
	est := core.EstimateQuery(q, g, core.DomainsRefined)
	if est.Pars == 0 {
		return // a single empty substitution; every variant is equivalent
	}
	if l.cfg.HaveVariant {
		switch l.cfg.Algo {
		case core.AlgoEnum:
			// Enumeration pays one ground pass per substitution in the full
			// domain product, realized or not; the worklist variants pay only
			// for substitutions that actually arise.
			if est.SubstsBound > 4096 {
				l.report(CodeVariantAdvice, Warning, span.Span{},
					fmt.Sprintf("enumeration always runs one ground pass per substitution in the domain product (%.3g passes here), even when few substitutions are realized",
						est.SubstsBound),
					"prefer the memoized algorithm for this domain size (paper Table 1)")
			}
		case core.AlgoBasic:
			if est.MemoTimeBound*4 <= est.BasicTimeBound {
				l.report(CodeVariantAdvice, Info, span.Span{},
					fmt.Sprintf("the basic algorithm's bound (%.3g) is %.1fx the memoized bound (%.3g) here",
						est.BasicTimeBound, est.BasicTimeBound/est.MemoTimeBound, est.MemoTimeBound),
					"memoization avoids re-matching labels per substitution (paper Section 3)")
			}
		}
		if l.cfg.Table == subst.Nested && est.SubstsBound > 100_000 {
			l.report(CodeTableAdvice, Info, span.Span{},
				fmt.Sprintf("nested-array tables allocate by the domain product (bound %.3g); likely sparse here",
					est.SubstsBound),
				"hashing is the paper's recommendation for sparse substitution sets (Table 3)")
		}
	}
	if est.SubstsBound >= 1e12 {
		l.report(CodeVariantAdvice, Warning, span.Span{},
			fmt.Sprintf("the substitution bound is %.3g; any per-substitution work is intractable at that scale",
				est.SubstsBound),
			"restrict parameter domains (refined domains, a more selective pattern) before running")
	}
}
