package analyze

import (
	"fmt"
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// lintSrc parses and lints a pattern source.
func lintSrc(t *testing.T, src string, cfg Config) []Diagnostic {
	t.Helper()
	e, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Lint(e, src, cfg)
}

// codes extracts the diagnostic codes in order.
func codes(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

// find returns the first diagnostic with the given code, failing otherwise.
func find(t *testing.T, ds []Diagnostic, code string) Diagnostic {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in %v", code, ds)
	return Diagnostic{}
}

func hasCode(ds []Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestCleanPatterns(t *testing.T) {
	for _, src := range []string{
		"_* use(x,l) (!def(x))* entry()", // backward uninit-uses: binds x first
		"_* def(x) _* use(x)",
		"_* state(s) act('i')+ state(s)",
		"use(x)",
		"eps", // literal eps is intentional, not flagged
	} {
		if ds := lintSrc(t, src, Config{}); len(ds) != 0 {
			t.Errorf("%q: want clean, got %v", src, ds)
		}
	}
}

func TestEmptyLanguage(t *testing.T) {
	ds := lintSrc(t, "!_ use(x)", Config{})
	d := find(t, ds, CodeEmpty)
	if d.Severity != Error {
		t.Errorf("RPQ001 severity = %v, want error", d.Severity)
	}
	// The unsatisfiable label itself is also reported.
	if u := find(t, ds, CodeUnsatLabel); u.Severity != Error {
		t.Errorf("RPQ007 severity = %v, want error", u.Severity)
	}
	// With an empty language, dead-label and binding findings are
	// suppressed as noise.
	if hasCode(ds, CodeDeadLabel) || hasCode(ds, CodeNeverBinds) {
		t.Errorf("empty language should suppress RPQ003/RPQ004, got %v", codes(ds))
	}
}

func TestOnlyEpsilon(t *testing.T) {
	ds := lintSrc(t, "(!_)*", Config{})
	d := find(t, ds, CodeOnlyEps)
	if d.Severity != Warning {
		t.Errorf("RPQ002 severity = %v, want warning", d.Severity)
	}
	if !hasCode(ds, CodeUnsatLabel) {
		t.Errorf("want RPQ007 alongside RPQ002, got %v", codes(ds))
	}
}

func TestDeadLabel(t *testing.T) {
	src := "a() (!_ b())?"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeDeadLabel)
	if got := src[d.Span.Start:d.Span.End]; got != "b()" {
		t.Errorf("RPQ003 span text = %q, want b()", got)
	}
	if hasCode(ds, CodeEmpty) {
		t.Errorf("language is non-empty (a() matches); got %v", codes(ds))
	}
}

func TestNeverBinds(t *testing.T) {
	src := "_* (!def(x))*"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeNeverBinds)
	if d.Severity != Error {
		t.Errorf("RPQ004 severity = %v, want error", d.Severity)
	}
	if got := src[d.Span.Start:d.Span.End]; got != "!def(x)" {
		t.Errorf("RPQ004 span text = %q, want !def(x)", got)
	}
	// RPQ006 is withheld when the parameter never binds at all.
	if hasCode(ds, CodeNegBeforeBind) {
		t.Errorf("RPQ006 should defer to RPQ004, got %v", codes(ds))
	}

	// Under universal semantics the same pattern is only informational:
	// universal algorithms can bind parameters by domain enumeration.
	uds := lintSrc(t, src, Config{Universal: true})
	ud := find(t, uds, CodeNeverBinds)
	if ud.Severity != Info {
		t.Errorf("universal RPQ004 severity = %v, want info", ud.Severity)
	}
}

func TestNeverBindsPositiveButDead(t *testing.T) {
	// use(x) exists but is cut off by an unsatisfiable label, so x still
	// cannot bind on an accepting path.
	src := "a() | !_ use(x)"
	ds := lintSrc(t, src, Config{})
	find(t, ds, CodeNeverBinds)
}

func TestMayNotBind(t *testing.T) {
	src := "_* use(x)?"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeMayNotBind)
	if d.Severity != Warning {
		t.Errorf("RPQ005 severity = %v, want warning", d.Severity)
	}
	if got := src[d.Span.Start:d.Span.End]; got != "use(x)" {
		t.Errorf("RPQ005 span text = %q, want use(x)", got)
	}
	// A pattern that always binds must not warn.
	if ds := lintSrc(t, "_* use(x)", Config{}); hasCode(ds, CodeMayNotBind) {
		t.Errorf("unconditional binding flagged: %v", ds)
	}
}

func TestNegBeforeBind(t *testing.T) {
	src := "(!def(x))* use(x)"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeNegBeforeBind)
	if d.Severity != Warning {
		t.Errorf("RPQ006 severity = %v, want warning", d.Severity)
	}
	if got := src[d.Span.Start:d.Span.End]; got != "!def(x)" {
		t.Errorf("RPQ006 span text = %q, want !def(x)", got)
	}
	// The backward formulation binds x before the negation: clean.
	if ds := lintSrc(t, "_* use(x,l) (!def(x))* entry()", Config{}); hasCode(ds, CodeNegBeforeBind) {
		t.Errorf("backward formulation flagged: %v", ds)
	}
}

// TestNegationFirstAdvice: the forward uninitialized-use query draws exactly
// one negation-first finding, whose hint points to the backward formulation;
// the backward formulation binds x first and draws none.
func TestNegationFirstAdvice(t *testing.T) {
	var neg []Diagnostic
	for _, d := range lintSrc(t, "(!def(x))* use(x)", Config{}) {
		if d.Code == CodeNegBeforeBind {
			neg = append(neg, d)
		}
	}
	if len(neg) != 1 || !strings.Contains(neg[0].Hint, "backward") {
		t.Fatalf("forward query RPQ006 findings = %v", neg)
	}
	if ds := lintSrc(t, "_* use(x,l) (!def(x))* entry()", Config{}); hasCode(ds, CodeNegBeforeBind) {
		t.Fatalf("backward query flagged: %v", ds)
	}
}

// TestMatchCostLabels: a label with two parameter-carrying negations falls
// outside the agree/disagree fragment (RPQ017), one combining three
// parameters with a negation pays the 2^labelpars factor (RPQ018), and a
// label with at most one negation over at most two parameters draws
// neither.
func TestMatchCostLabels(t *testing.T) {
	d := find(t, lintSrc(t, "f(!x,!y)", Config{}), CodeGenericMatch)
	if d.Severity != Info {
		t.Errorf("RPQ017 severity = %v, want info", d.Severity)
	}
	if ds := lintSrc(t, "_* f(x) g(!(h(!x)))", Config{}); !hasCode(ds, CodeGenericMatch) {
		t.Errorf("nested negation: want RPQ017, got %v", ds)
	}
	d = find(t, lintSrc(t, "_* f(x,y,z) !g(x,y,z)", Config{}), CodeLabelParsFactor)
	if d.Severity != Info {
		t.Errorf("RPQ018 severity = %v, want info", d.Severity)
	}
	for _, src := range []string{"_* state(s) act(_)", "_* f(x,y) !g(x,y)", "_* f(x,y,z) g(x,y,z)"} {
		if ds := lintSrc(t, src, Config{}); hasCode(ds, CodeGenericMatch) || hasCode(ds, CodeLabelParsFactor) {
			t.Errorf("%q: want no RPQ017/RPQ018, got %v", src, ds)
		}
	}
}

func TestUnsatLabelNegatedAlternation(t *testing.T) {
	src := "a() | !(_|def(x))"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeUnsatLabel)
	if got := src[d.Span.Start:d.Span.End]; got != "!(_|def(x))" {
		t.Errorf("RPQ007 span text = %q", got)
	}
}

func TestDuplicateBranch(t *testing.T) {
	src := "a() | b() | a()"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeDupBranch)
	if d.Span.Start != 12 { // the second a()
		t.Errorf("RPQ008 span = %v, want start 12", d.Span)
	}
}

func TestEpsBranchSubsumed(t *testing.T) {
	src := "eps | a()*"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeDupBranch)
	if got := src[d.Span.Start:d.Span.End]; got != "eps" {
		t.Errorf("RPQ008 span text = %q, want eps", got)
	}
	// eps | a() is fine: the branches are disjoint.
	if ds := lintSrc(t, "eps | a()", Config{}); hasCode(ds, CodeDupBranch) {
		t.Errorf("eps|a() flagged: %v", ds)
	}
}

func TestRedundantRepetition(t *testing.T) {
	for _, src := range []string{"(a()*)*", "(a()?)+", "(a()*)?"} {
		ds := lintSrc(t, src, Config{})
		if !hasCode(ds, CodeRedundantRep) {
			t.Errorf("%q: want RPQ009, got %v", src, ds)
		}
	}
	if ds := lintSrc(t, "(a() b())*", Config{}); hasCode(ds, CodeRedundantRep) {
		t.Errorf("(a() b())* flagged: %v", ds)
	}
}

// testGraph builds the small def/use graph shared by the graph-check tests.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.MustAddEdgeStr("v1", "def(a)", "v2")
	g.MustAddEdgeStr("v2", "use(a)", "v3")
	g.MustAddEdgeStr("v2", "use(b)", "v3")
	g.SetStart(g.Vertex("v1"))
	return g
}

func lintGraph(t *testing.T, g *graph.Graph, src string, cfg Config) []Diagnostic {
	t.Helper()
	e, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return LintForGraph(g, e, src, cfg)
}

func TestUnknownConstructor(t *testing.T) {
	g := testGraph(t)
	src := "_* uze(x)"
	ds := lintGraph(t, g, src, Config{})
	d := find(t, ds, CodeUnknownCtor)
	if got := src[d.Span.Start:d.Span.End]; got != "uze(x)" {
		t.Errorf("RPQ010 span text = %q", got)
	}
	// The typo makes the whole query unmatchable on this graph.
	if e := find(t, ds, CodeGraphEmpty); e.Severity != Error {
		t.Errorf("RPQ012 severity = %v, want error", e.Severity)
	}
}

func TestArityMismatch(t *testing.T) {
	g := testGraph(t)
	ds := lintGraph(t, g, "_* use(x,l)", Config{})
	d := find(t, ds, CodeArityMismatch)
	if !strings.Contains(d.Message, "arity 1") || !strings.Contains(d.Message, "not 2") {
		t.Errorf("RPQ011 message = %q", d.Message)
	}
	find(t, ds, CodeGraphEmpty)
}

func TestGraphEmptyOnlyWhenUnavoidable(t *testing.T) {
	g := testGraph(t)
	// The unknown constructor sits in an optional branch; the query can
	// still match.
	ds := lintGraph(t, g, "_* uze(x)?", Config{})
	if hasCode(ds, CodeGraphEmpty) {
		t.Errorf("optional unmatchable label should not be RPQ012: %v", ds)
	}
	if !hasCode(ds, CodeUnknownCtor) {
		t.Errorf("want RPQ010 for the typo, got %v", codes(ds))
	}
}

func TestNegVacuous(t *testing.T) {
	g := testGraph(t)
	// junk(x) matches nothing in the graph, so the negation excludes
	// nothing.
	ds := lintGraph(t, g, "(!junk(x))* use(x)", Config{})
	d := find(t, ds, CodeNegVacuous)
	if d.Severity != Info {
		t.Errorf("RPQ013 (excludes nothing) severity = %v, want info", d.Severity)
	}

	// !(def(_)|use(_)) excludes every label of this graph.
	ds = lintGraph(t, g, "_* !(def(_)|use(_)) use(x)", Config{})
	d = find(t, ds, CodeNegVacuous)
	if d.Severity != Warning {
		t.Errorf("RPQ013 (excludes everything) severity = %v, want warning", d.Severity)
	}
	find(t, ds, CodeGraphEmpty)
}

func TestGraphChecksCleanQuery(t *testing.T) {
	g := testGraph(t)
	ds := lintGraph(t, g, "_* def(x) _* use(x)", Config{})
	if len(ds) != 0 {
		t.Errorf("clean graph query flagged: %v", ds)
	}
}

// bigGraph returns a graph with n distinct e(aI,bI,cI) labels, for the
// cost-model advice tests.
func bigGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.MustAddEdgeStr("v1", fmt.Sprintf("e(a%d,b%d,c%d)", i, i, i), "v1")
	}
	g.SetStart(g.Vertex("v1"))
	return g
}

func TestVariantAdviceEnum(t *testing.T) {
	g := bigGraph(20) // domains 20^3 = 8000 > 4096
	e := pattern.MustParse("_* e(x,y,z)")
	ds := LintForGraph(g, e, "_* e(x,y,z)", Config{HaveVariant: true, Algo: core.AlgoEnum})
	d := find(t, ds, CodeVariantAdvice)
	if d.Severity != Warning {
		t.Errorf("RPQ014 severity = %v, want warning", d.Severity)
	}
	// The same query with memoization draws no advice.
	ds = LintForGraph(g, e, "_* e(x,y,z)", Config{HaveVariant: true, Algo: core.AlgoMemo})
	if hasCode(ds, CodeVariantAdvice) {
		t.Errorf("memoized variant flagged: %v", ds)
	}
}

func TestTableAdviceNested(t *testing.T) {
	g := bigGraph(50) // domains 50^3 = 125000 > 100000
	e := pattern.MustParse("_* e(x,y,z)")
	cfg := Config{HaveVariant: true, Algo: core.AlgoMemo, Table: subst.Nested}
	ds := LintForGraph(g, e, "_* e(x,y,z)", cfg)
	d := find(t, ds, CodeTableAdvice)
	if d.Severity != Info {
		t.Errorf("RPQ015 severity = %v, want info", d.Severity)
	}
	cfg.Table = subst.Hash
	ds = LintForGraph(g, e, "_* e(x,y,z)", cfg)
	if hasCode(ds, CodeTableAdvice) {
		t.Errorf("hash table flagged: %v", ds)
	}
}

func TestDiagnosticOrderingAndPos(t *testing.T) {
	src := "(!def(x))* use(x) | (!def(x))* use(x)"
	ds := lintSrc(t, src, Config{})
	for i := 1; i < len(ds); i++ {
		if ds[i].Span.Start < ds[i-1].Span.Start {
			t.Errorf("diagnostics not sorted by span: %v", ds)
		}
	}
	for _, d := range ds {
		if d.Pos == "" {
			t.Errorf("diagnostic lacks Pos: %+v", d)
		}
	}
}

func TestFormatRendersCaretAndHint(t *testing.T) {
	src := "(!def(x))* use(x)"
	ds := lintSrc(t, src, Config{})
	d := find(t, ds, CodeNegBeforeBind)
	out := Format(d, src)
	if !strings.Contains(out, "^") {
		t.Errorf("Format lacks caret:\n%s", out)
	}
	if !strings.Contains(out, "hint:") {
		t.Errorf("Format lacks hint:\n%s", out)
	}
	if !strings.Contains(out, "RPQ006 warning at 1:2-1:8") {
		t.Errorf("Format header wrong:\n%s", out)
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Severity
		if err := got.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %v -> %s -> %v", s, b, got)
		}
	}
}

func TestHelpers(t *testing.T) {
	ds := []Diagnostic{
		{Code: CodeOnlyEps, Severity: Warning},
		{Code: CodeEmpty, Severity: Error},
	}
	if !HasErrors(ds) {
		t.Error("HasErrors = false")
	}
	if errs := Errors(ds); len(errs) != 1 || errs[0].Code != CodeEmpty {
		t.Errorf("Errors = %v", errs)
	}
	if MaxSeverity(ds) != Error {
		t.Errorf("MaxSeverity = %v", MaxSeverity(ds))
	}
	if MaxSeverity(nil) != Info {
		t.Errorf("MaxSeverity(nil) = %v", MaxSeverity(nil))
	}
}
