package cfgschema

import (
	"testing"

	"rpq/internal/label"
)

func TestCanonicalAliases(t *testing.T) {
	cases := map[string]string{
		"acq":    "lock",
		"rel":    "unlock",
		"lock":   "lock",
		"unlock": "unlock",
		"open":   "open",
		"def":    "def",
		"frob":   "frob", // unknown names pass through
	}
	for in, want := range cases {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAliasTargetsAreInSchema(t *testing.T) {
	for alias, canon := range aliases {
		if _, ok := Lookup(canon); !ok {
			t.Errorf("alias %s maps to %s, which is not in the schema", alias, canon)
		}
		if _, ok := Lookup(alias); ok {
			t.Errorf("alias %s must not itself be a schema constructor", alias)
		}
	}
}

func TestSchemaWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Schema() {
		if c.Name == "" || c.Doc == "" || len(c.Arities) == 0 || len(c.Emitters) == 0 {
			t.Errorf("incomplete schema entry %+v", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate schema constructor %s", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestHelpersMatchSchema pins what Effect emits to schema-known (name,
// arity) pairs. Front ends build their other labels themselves (MiniC with
// label.App, gofront with its glabel helpers); each front end's own
// TestLabelsMatchSchema pins those against the table.
func TestHelpersMatchSchema(t *testing.T) {
	terms := []*label.Term{
		Effect("acq", label.Sym("m")), Effect("rel", label.Sym("m")),
		Effect("close", label.Sym("ch")), Effect("open", label.Sym("f")),
	}
	for _, tm := range terms {
		if !HasArity(tm.Name, len(tm.Args)) {
			t.Errorf("helper emitted %s/%d, not in schema", tm.Name, len(tm.Args))
		}
	}
}

func TestEffectCanonicalizes(t *testing.T) {
	tm := Effect("acq", label.Sym("m"))
	if tm.Name != "lock" {
		t.Errorf("Effect(acq) emitted %s, want lock", tm.Name)
	}
	tm = Effect("rel", label.Sym("m"))
	if tm.Name != "unlock" {
		t.Errorf("Effect(rel) emitted %s, want unlock", tm.Name)
	}
	tm = Effect("close", label.Sym("f"))
	if tm.Name != "close" {
		t.Errorf("Effect(close) emitted %s, want close", tm.Name)
	}
}
