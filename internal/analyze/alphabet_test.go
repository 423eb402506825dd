package analyze

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rpq/internal/gofront"
	"rpq/internal/pattern"
	"rpq/internal/queries"
)

// alphabetCodes are the codes rpqcheck keeps from the alphabet checks.
var alphabetCodes = []string{CodeUnknownCtor, CodeArityMismatch, CodeAlphabetCoverage}

func keepAlphabetCodes(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if slices.Contains(alphabetCodes, d.Code) {
			out = append(out, d)
		}
	}
	return out
}

// TestAlphabetForGraphMatchesLint checks that the narrow entry point's
// RPQ010/011/016 diagnostics equal LintForGraph's, in order, for every
// rpqcheck catalog pattern plus patterns that force each code, on every
// Go fixture's graph and its linked copy.
func TestAlphabetForGraphMatchesLint(t *testing.T) {
	pats := []string{
		"_* acq(m)",                        // RPQ010: unknown constructor
		"_* lock(m, n)",                    // RPQ011: wrong arity
		"(!(unlock(m) | rel(m)))* lock(m)", // RPQ016: unseen constructor under negation
		"(!lock(m, n))* unlock(m)",         // RPQ016: unseen arity under negation
	}
	forced := len(pats)
	for _, c := range queries.GoChecks() {
		pats = append(pats, c.Pattern)
	}
	fixtures, err := filepath.Glob("../../testdata/goprog/*")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no Go fixtures: %v", err)
	}
	seen := map[string]bool{}
	for _, dir := range fixtures {
		prog, err := gofront.Load([]string{dir + "/..."}, gofront.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		linked, err := prog.Linked()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*gofront.Program{prog, linked} {
			for i, src := range pats {
				e := pattern.MustParse(src)
				got := keepAlphabetCodes(AlphabetForGraph(p.Graph, e, src))
				want := keepAlphabetCodes(LintForGraph(p.Graph, e, src, Config{}))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %q:\n narrow %v\n full   %v", dir, src, got, want)
				}
				if i < forced {
					for _, d := range got {
						seen[d.Code] = true
					}
				}
			}
		}
	}
	for _, code := range alphabetCodes {
		if !seen[code] {
			t.Errorf("no forcing pattern produced %s", code)
		}
	}
}
