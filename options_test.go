package rpq

import (
	"strings"
	"testing"

	"rpq/internal/core"
)

// roundTrip checks one choice type against its parse function: every
// value up to last has a name that parses back to it, the value after last
// has none, and unknown, empty, padded and case-variant names are
// rejected.
func roundTrip[T interface {
	~int
	String() string
}](t *testing.T, last T, parse func(string) (T, error)) {
	t.Helper()
	for v := T(0); v <= last; v++ {
		s := v.String()
		if got, err := parse(s); err != nil || got != v {
			t.Errorf("%T: parse(%q) = %v, %v; want %v", v, s, got, err, v)
		}
		for _, bad := range []string{strings.ToUpper(s), " " + s, s + "x"} {
			if got, err := parse(bad); err == nil {
				t.Errorf("%T: parse(%q) = %v, want an error", v, bad, got)
			}
		}
	}
	for _, bad := range []string{"", "bogus", (last + 1).String()} {
		if got, err := parse(bad); err == nil {
			t.Errorf("%T: parse(%q) = %v, want an error", last, bad, got)
		}
	}
}

func TestChoiceNamesRoundTrip(t *testing.T) {
	roundTrip(t, Hybrid, ParseAlgorithm)
	roundTrip(t, NestedArrays, ParseTableKind)
	roundTrip(t, AllSymbols, ParseDomainMode)
	roundTrip(t, core.CompleteExplicit, core.CompletionNames.Parse)
	// Every explicit variant is named after the core variant it runs.
	for a := Basic; a <= Hybrid; a++ {
		if a.String() != coreAlgos[a].String() {
			t.Errorf("%v runs core variant %v", a, coreAlgos[a])
		}
	}
}

// TestOutOfRangeOptions requires a value outside a choice's table to be
// rejected with an error before any solving, never a panic.
func TestOutOfRangeOptions(t *testing.T) {
	g, err := ReadGraphString("start v1\nedge v1 def(a) v2\nedge v2 use(a) v3\n")
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePattern("(!def(x))* use(x)")
	for name, opts := range map[string]Options{
		"table=2":      {Table: 2},
		"domains=7":    {Domains: 7},
		"algorithm=9":  {Algorithm: 9},
		"algorithm=-1": {Algorithm: -1},
	} {
		for kind, run := range map[string]func(*Pattern, *Options) (*Result, error){
			"exist": g.Exist, "universal": g.Universal,
		} {
			t.Run(kind+"/"+name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				res, err := run(p, &opts)
				if err == nil {
					t.Fatalf("accepted, answers %v", res.Answers)
				}
				if !strings.Contains(err.Error(), "unknown") {
					t.Errorf("error %q does not name the unknown value", err)
				}
			})
		}
	}
}
