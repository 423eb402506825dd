package analyze

import (
	"reflect"
	"slices"
	"testing"

	"rpq/internal/queries"
)

// TestCatalogLintsClean sweeps the full analysis catalog through the linter
// with each entry's own query kind. No entry may produce an error-severity
// finding; the advisory findings each entry is expected to produce are
// annotated below and asserted exactly, so a linter change that adds or
// drops findings on the shipped queries is visible in review.
//
// The annotations retell the paper's Section 5.1 experience report: the
// forward formulations (uninit-uses and friends) bind their parameter only
// after a negation and draw RPQ006 — "queries that bind parameters
// positively before negations are much faster" — while the backward
// formulations (-bwd) lint clean. locking-discipline binds x only under
// negation and l only on some paths; both are informational under universal
// semantics, where domain enumeration supplies bindings.
func TestCatalogLintsClean(t *testing.T) {
	expected := map[string][]string{
		"uninit-uses":           {CodeNegBeforeBind},
		"uninit-first-uses":     {CodeNegBeforeBind},
		"uninit-uses-sites":     {CodeNegBeforeBind},
		"file-access-violation": {CodeNegBeforeBind},
		"file-unclosed":         {CodeNegBeforeBind},
		"locking-discipline":    {CodeNeverBinds, CodeMayNotBind},
	}
	for _, a := range queries.Catalog() {
		ds := Lint(a.Expr(), a.Pattern, Config{Universal: a.Kind == queries.Universal})
		if errs := Errors(ds); len(errs) > 0 {
			t.Errorf("%s: error-severity findings: %v", a.Name, errs)
		}
		got := codes(ds)
		want := expected[a.Name]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lint codes = %v, want %v (diags: %v)", a.Name, got, want, ds)
		}
	}
}

// TestCatalogSpansResolve checks that every catalog finding carries a valid
// span into its own pattern source.
func TestCatalogSpansResolve(t *testing.T) {
	for _, a := range queries.Catalog() {
		for _, d := range Lint(a.Expr(), a.Pattern, Config{Universal: a.Kind == queries.Universal}) {
			if !d.Span.Valid() || d.Span.End > len(a.Pattern) {
				t.Errorf("%s: %s span %v out of range for %q", a.Name, d.Code, d.Span, a.Pattern)
			}
			if d.Pos == "" {
				t.Errorf("%s: %s lacks Pos", a.Name, d.Code)
			}
		}
	}
}

// TestCatalogNegationFirst pins which catalog entries reach a parameter
// under a negation before any positive binding (RPQ006), or never bind it
// positively at all (RPQ004): exactly the forward uninit queries and the
// resource disciplines, whose backward reformulations avoid it (the
// Section 5.1 tradeoff the paper measures in Table 1).
func TestCatalogNegationFirst(t *testing.T) {
	want := map[string]bool{
		"uninit-uses":           true,
		"uninit-first-uses":     true,
		"uninit-uses-sites":     true,
		"file-access-violation": true, // f first occurs under !open(f) on the eps branch
		"file-unclosed":         true, // f first occurs under !close(f); cheap in practice (few files)
		"locking-discipline":    true, // x occurs only under !access(x)
	}
	for _, a := range queries.Catalog() {
		got := codes(Lint(a.Expr(), a.Pattern, Config{Universal: a.Kind == queries.Universal}))
		negFirst := slices.Contains(got, CodeNegBeforeBind) || slices.Contains(got, CodeNeverBinds)
		if negFirst != want[a.Name] {
			t.Errorf("%s: negation-first finding = %v, want %v (codes: %v)", a.Name, negFirst, want[a.Name], got)
		}
	}
}
