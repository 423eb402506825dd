package pattern_test

import (
	"testing"

	"rpq/internal/pattern"
	"rpq/internal/queries"
)

// FuzzParsePattern feeds untrusted pattern text (rpq -pattern, the rpqd
// request body) to Parse. Parse may reject it but must not panic, and
// whatever it accepts must print to text that parses again and prints the
// same: String is a fixpoint after one round. The check compares printed
// text, not trees, because String flattens nested concatenations (so
// ((A)(A()A))A prints as A() A() A() A() and reparses to a flatter tree).
func FuzzParsePattern(f *testing.F) {
	for _, a := range queries.Catalog() {
		f.Add(a.Pattern)
	}
	for _, c := range queries.GoChecks() {
		f.Add(c.Pattern)
	}
	// The examples in the Parse doc, and the nested-concatenation case.
	for _, src := range []string{
		"(!def(x))* use(x)",
		"_* use(x,l) (!def(x))* entry()",
		"(eps | _* close(f)) (!open(f))* access(f)",
		"_* state(s) act('i')+ state(s)",
		"((!access(x))* acq(l) (!rel(l))*)*",
		"((A)(A()A))A",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := pattern.Parse(src)
		if err != nil {
			return
		}
		printed := pattern.String(e)
		back, err := pattern.Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse again: %v", src, printed, err)
		}
		if again := pattern.String(back); again != printed {
			t.Fatalf("Parse(%q) prints %q, which reprints as %q", src, printed, again)
		}
	})
}
