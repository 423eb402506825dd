// Package analyze is the static query analyzer: a lint pass over parsed
// patterns and their automata that runs before any solving and reports
// structured diagnostics. It catches the query-formulation mistakes the
// paper's Section 5.1 experience report describes — parameters that a
// negation reaches before any positive binding, patterns whose language is
// empty or only the empty path, labels no edge can ever match, labels off
// the matcher's agree/disagree fast path — plus graph-alphabet mismatches
// (misspelled constructors, wrong arities) and predictable
// algorithm/data-structure mismatches from the Figure 2 cost model.
//
// Every diagnostic carries a stable code (RPQ001…), a severity, the source
// span of the offending pattern fragment, a message, and usually a fix hint.
// docs/analysis.md documents each code with a minimal triggering example.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/span"
	"rpq/internal/subst"
)

// Severity grades a diagnostic. Error means the query is statically known to
// be broken (it cannot return what the author plainly intended); Warning
// flags likely mistakes and known performance traps; Info is advice.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity ("info", "warning", "error").
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("analyze: unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes. The numbers are stable: tools and suppressions may key
// off them, so codes are never renumbered or reused.
const (
	// CodeEmpty: the pattern's language is empty — no path can ever match.
	CodeEmpty = "RPQ001"
	// CodeOnlyEps: the pattern matches only the empty path.
	CodeOnlyEps = "RPQ002"
	// CodeDeadLabel: a label lies on no accepting path of the automaton.
	CodeDeadLabel = "RPQ003"
	// CodeNeverBinds: a parameter has no positive occurrence on any
	// accepting path, so an existential query is provably empty.
	CodeNeverBinds = "RPQ004"
	// CodeMayNotBind: a parameter binds on some but not all matching paths.
	CodeMayNotBind = "RPQ005"
	// CodeNegBeforeBind: a negation mentioning a parameter is reachable
	// before any positive binding of it (Section 5.1's slow formulation).
	CodeNegBeforeBind = "RPQ006"
	// CodeUnsatLabel: the label can match no edge label of any graph (!_
	// or a negated alternation containing _).
	CodeUnsatLabel = "RPQ007"
	// CodeDupBranch: an alternation branch duplicates or is subsumed by an
	// earlier one.
	CodeDupBranch = "RPQ008"
	// CodeRedundantRep: a repetition or option wraps a sub-pattern that
	// already matches the empty path.
	CodeRedundantRep = "RPQ009"
	// CodeUnknownCtor: a constructor never occurs in the target graph.
	CodeUnknownCtor = "RPQ010"
	// CodeArityMismatch: a constructor occurs in the graph, but never with
	// this arity.
	CodeArityMismatch = "RPQ011"
	// CodeGraphEmpty: against this graph, no accepting path can be realized
	// — the query is provably empty on this input.
	CodeGraphEmpty = "RPQ012"
	// CodeNegVacuous: a negation excludes nothing (its body matches no edge
	// label of the graph) or everything (its body matches every edge label).
	CodeNegVacuous = "RPQ013"
	// CodeVariantAdvice: the selected algorithm variant is predictably
	// dominated on this query/graph per the Figure 2 cost model.
	CodeVariantAdvice = "RPQ014"
	// CodeTableAdvice: the selected table representation is predictably
	// poor for this query/graph (Table 3).
	CodeTableAdvice = "RPQ015"
	// CodeAlphabetCoverage: a constructor referenced inside a negation never
	// occurs in the graph's alphabet, so the negation silently excludes less
	// than written — the usual symptom of frontend/schema drift.
	CodeAlphabetCoverage = "RPQ016"
	// CodeGenericMatch: a label has more than one parameter-carrying
	// negation, or a nested negation, so it falls outside the
	// agree/disagree fragment and takes the generic matcher (Section 3).
	CodeGenericMatch = "RPQ017"
	// CodeLabelParsFactor: a label combines more than two parameters with a
	// parameter-carrying negation, so matching it pays the 2^labelpars
	// factor of Section 3.
	CodeLabelParsFactor = "RPQ018"
)

// Diagnostic is one lint finding.
type Diagnostic struct {
	// Code is the stable diagnostic code ("RPQ004").
	Code string `json:"code"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Span is the byte span of the offending fragment in the pattern
	// source; the zero span means the diagnostic applies to the whole
	// pattern (or the source is unavailable).
	Span span.Span `json:"span"`
	// Pos renders Span as "line:col[-line:col]" against the pattern source,
	// when the source was available to the linter.
	Pos string `json:"pos,omitempty"`
	// Message states the finding.
	Message string `json:"message"`
	// Hint, when present, suggests a fix.
	Hint string `json:"hint,omitempty"`
}

// String renders "CODE severity at pos: message".
func (d Diagnostic) String() string {
	pos := d.Pos
	if pos == "" {
		pos = "?"
	}
	return fmt.Sprintf("%s %s at %s: %s", d.Code, d.Severity, pos, d.Message)
}

// Format renders the diagnostic with a caret snippet into the pattern source
// and the fix hint, for terminal display.
func Format(d Diagnostic, src string) string {
	var b strings.Builder
	b.WriteString(d.String())
	if src != "" && d.Span.Valid() {
		if snip := span.Caret(src, d.Span); snip != "" {
			b.WriteString("\n  ")
			b.WriteString(strings.ReplaceAll(snip, "\n", "\n  "))
		}
	}
	if d.Hint != "" {
		b.WriteString("\n  hint: ")
		b.WriteString(d.Hint)
	}
	return b.String()
}

// Config adjusts the lint pass to the query that will run.
type Config struct {
	// Universal selects universal-query semantics: parameters there may be
	// bound by domain enumeration rather than positive matching, so the
	// binding-dataflow findings (RPQ004, RPQ005) downgrade to Info.
	Universal bool
	// HaveVariant enables variant advice (RPQ014/RPQ015) against the
	// algorithm and table representation the caller intends to use.
	HaveVariant bool
	// Algo is the intended solver variant, when HaveVariant is set.
	Algo core.Algo
	// Table is the intended table representation, when HaveVariant is set.
	Table subst.TableKind
}

// Lint runs the graph-independent checks on a parsed pattern: emptiness and
// vacuity of the automaton, parameter-binding dataflow, label
// satisfiability and matching cost, and structural redundancy. src is the pattern's source
// text, used to render positions; it may be empty for programmatically built
// patterns. Diagnostics are sorted by span, then code.
func Lint(e pattern.Expr, src string, cfg Config) []Diagnostic {
	l := &linter{src: src, cfg: cfg, whole: pattern.SpanOf(e)}
	l.checkAST(e)
	l.checkAutomaton(e)
	return l.finish()
}

// LintForGraph runs Lint plus the graph-dependent checks: alphabet
// satisfiability (unknown constructors, arity mismatches, vacuous
// negations), graph-level emptiness, and variant advice from the Figure 2
// cost model. It compiles the pattern against the graph's universe, exactly
// as running the query would.
func LintForGraph(g *graph.Graph, e pattern.Expr, src string, cfg Config) []Diagnostic {
	l := &linter{src: src, cfg: cfg, whole: pattern.SpanOf(e)}
	l.checkAST(e)
	l.checkAutomaton(e)
	l.checkGraph(g, e)
	return l.finish()
}

// AlphabetForGraph runs only the per-label alphabet checks of
// LintForGraph: unknown constructors (RPQ010), arity mismatches (RPQ011),
// vacuous negations (RPQ013) and alphabet coverage under negation
// (RPQ016). Its diagnostics are exactly LintForGraph's of those codes, in
// the same order, without the graph-independent checks, graph-level
// emptiness or variant advice — so it neither compiles the pattern nor
// computes domains. It suits callers that keep only these findings, such
// as rpqcheck's schema-drift advisories.
func AlphabetForGraph(g *graph.Graph, e pattern.Expr, src string) []Diagnostic {
	l := &linter{src: src, whole: pattern.SpanOf(e)}
	l.checkAlphabet(buildAlphabet(g), buildNFA(e))
	return l.finish()
}

// HasErrors reports whether any diagnostic has Error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns the Error-severity subset.
func Errors(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// MaxSeverity returns the highest severity present, or Info for an empty
// report.
func MaxSeverity(ds []Diagnostic) Severity {
	max := Info
	for _, d := range ds {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// linter accumulates diagnostics for one pattern.
type linter struct {
	src   string
	cfg   Config
	whole span.Span
	diags []Diagnostic
}

// report appends a diagnostic; a zero span falls back to the whole pattern.
func (l *linter) report(code string, sev Severity, sp span.Span, msg, hint string) {
	if !sp.Valid() {
		sp = l.whole
	}
	d := Diagnostic{Code: code, Severity: sev, Span: sp, Message: msg, Hint: hint}
	if l.src != "" && sp.Valid() {
		d.Pos = span.Format(l.src, sp)
	}
	l.diags = append(l.diags, d)
}

// finish sorts and returns the accumulated diagnostics.
func (l *linter) finish() []Diagnostic {
	sort.SliceStable(l.diags, func(i, j int) bool {
		a, b := l.diags[i], l.diags[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
	return l.diags
}
