package rpq

import (
	"fmt"
	"strings"

	"rpq/internal/analyze"
	"rpq/internal/pattern"
)

// Diagnostic is one static-analysis finding about a query: a stable code
// (RPQ001…), a severity, the source span of the offending pattern fragment,
// a message, and usually a fix hint. docs/analysis.md documents every code.
type Diagnostic = analyze.Diagnostic

// LintSeverity grades a Diagnostic.
type LintSeverity = analyze.Severity

// Severity levels, in increasing order.
const (
	SeverityInfo    = analyze.Info
	SeverityWarning = analyze.Warning
	SeverityError   = analyze.Error
)

// Lint runs the graph-independent static checks on a pattern and returns
// the findings, sorted by source position: automaton emptiness and vacuity,
// parameter-binding dataflow (never-binding parameters, negations reached
// before a binding — the paper's Section 5.1 pitfalls), unsatisfiable
// labels, and structural redundancy. The existential reading of parameter
// binding is assumed; universal queries are linted with the appropriate
// semantics when Options.Lint gates them.
func Lint(p *Pattern) []Diagnostic {
	return analyze.Lint(p.expr, p.src, analyze.Config{})
}

// LintForGraph runs Lint plus the graph-dependent checks: constructors that
// never occur in the graph, arity mismatches, negations that exclude
// nothing or everything, graph-level emptiness, and cost-model advice. Like
// running the query, it compiles the pattern against the graph's universe.
func LintForGraph(g *Graph, p *Pattern) []Diagnostic {
	return analyze.LintForGraph(g.g, p.expr, p.src, analyze.Config{})
}

// LintQuery runs the analysis exactly as the query entry points would run
// it: with the graph-dependent checks when g is non-nil, universal
// parameter-binding semantics when universal is set, and variant advice
// derived from opts (algorithm and table choice). It is what cmd/rpq -lint
// uses, and what Options.Lint gates on.
func LintQuery(g *Graph, p *Pattern, universal bool, opts *Options) []Diagnostic {
	cfg := lintConfig(opts, universal)
	if g != nil {
		return analyze.LintForGraph(g.g, p.expr, p.src, cfg)
	}
	return analyze.Lint(p.expr, p.src, cfg)
}

// FormatDiagnostic renders a finding with a caret snippet into the
// pattern's source and the fix hint, for terminal display.
func FormatDiagnostic(d Diagnostic, p *Pattern) string {
	return analyze.Format(d, p.src)
}

// LintError is returned by the query entry points when Options.Lint is set
// and the pattern has error-severity findings; the query is rejected before
// any solving. Diags holds the full lint report (all severities).
type LintError struct {
	Diags []Diagnostic
}

// Error summarizes the error-severity findings.
func (e *LintError) Error() string {
	errs := analyze.Errors(e.Diags)
	var b strings.Builder
	fmt.Fprintf(&b, "rpq: query rejected by lint (%d error(s))", len(errs))
	for _, d := range errs {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// lintConfig derives the analyzer configuration for a run: the query kind's
// binding semantics plus the chosen algorithm/table for variant advice.
// Auto means the recommended variant, which draws no advice.
func lintConfig(opts *Options, universal bool) analyze.Config {
	cfg := analyze.Config{Universal: universal}
	if opts != nil && opts.Algorithm != Auto && algorithmNames.Valid(opts.Algorithm) {
		cfg.HaveVariant = true
		cfg.Algo = coreAlgos[opts.Algorithm]
		cfg.Table = opts.Table
	}
	return cfg
}

// gateLint enforces Options.Lint: with the flag set, it lints the query and
// rejects it with a *LintError on error-severity findings, before any
// solver work (zero worklist pops, no in-flight registration). Without the
// flag nothing is analyzed, keeping the default query path free of
// analysis cost.
func gateLint(opts *Options, e pattern.Expr, src string, universal bool) error {
	if !opts.Lint {
		return nil
	}
	if diags := analyze.Lint(e, src, lintConfig(opts, universal)); analyze.HasErrors(diags) {
		return &LintError{Diags: diags}
	}
	return nil
}
